package dist

import (
	"fmt"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// Tier selects the wire precision of a tiered collective. The ladder
// is f64 (the full-precision default) > f32 (PR 8's error-feedback
// compression) > i8 (the chunked dithered quantizer of wirei8.go).
// Every tier's arithmetic is fixed across backends — contributions
// quantized with the tier's rounding, summed in rank order in float64
// segment by segment at each segment's owner (reduceSegment), sum
// quantized once — so results are bit-identical on chan, tcp and self
// whether or not bytes actually move.
type Tier int

// Compression tiers, finest first.
const (
	TierF64 Tier = iota
	TierF32
	TierI8
)

// tierSpec is everything the package knows about one wire tier. This
// table is the only place a tier is told apart from another: combine,
// the per-backend shared allreduce, the accounting and the frame codec
// all index it. Adding a tier is one entry here
// plus the wire file holding its round/append/decode functions.
type tierSpec struct {
	name string
	// round writes into dst the value src takes after one trip through
	// the tier's wire (dst and src may alias); addRounded is the fused
	// res[i] += round(src)[i]. Both work on whole slices so the f64 and
	// f32 inner loops stay single-pass with no per-element call. src is
	// the slice at value offset off of the collective's payload (0 for
	// the whole of it): a position-keyed tier (i8) rounds a segment as
	// that range of the whole payload, given off on a chunk boundary.
	round      func(dst, src []float64, off int)
	addRounded func(res, src []float64, off int)
	// words is the accounting footprint (64-bit words per tree level)
	// of n values; beta the fitted inverse bandwidth under m.
	words func(n int) int64
	beta  func(m perf.Machine) float64
	// Frame codec: the contribution/result kinds that carry the tier,
	// the body length of n values, and the payload encode/decode.
	// Encoding IS the quantization: decode(append(x)) == round(x).
	contrib, result FrameKind
	payloadBytes    func(n int) int
	appendPayload   func(dst []byte, vals []float64, off int) []byte
	decodePayload   func(dst []float64, body []byte)
	// capable, allreduce and post reach the tier on an arbitrary Comm
	// through the public capability interfaces below.
	capable   func(c Comm) bool
	allreduce func(c Comm, local []float64) []float64
	post      func(c Comm, local []float64) *Request
}

var tiers = [...]tierSpec{
	TierF64: {
		name:  "f64",
		round: func(dst, src []float64, _ int) { copy(dst, src) },
		addRounded: func(res, src []float64, _ int) {
			for i, v := range src {
				res[i] += v
			}
		},
		words:   func(n int) int64 { return int64(n) },
		beta:    func(m perf.Machine) float64 { return m.Beta },
		contrib: FrameContrib, result: FrameResult,
		payloadBytes:  func(n int) int { return 8 * n },
		appendPayload: appendF64Payload,
		decodePayload: decodeF64Payload,
		capable:       func(Comm) bool { return true },
		allreduce:     Comm.AllreduceShared,
		post:          Comm.IAllreduceShared,
	},
	TierF32: {
		name: "f32",
		round: func(dst, src []float64, _ int) {
			for i, v := range src {
				dst[i] = F32Round(v)
			}
		},
		addRounded: func(res, src []float64, _ int) {
			for i, v := range src {
				res[i] += F32Round(v)
			}
		},
		words:   perf.F32Words,
		beta:    perf.Machine.F32Beta,
		contrib: FrameContribF32, result: FrameResultF32,
		payloadBytes:  func(n int) int { return 4 * n },
		appendPayload: appendF32Payload,
		decodePayload: decodeF32Payload,
		capable:       func(c Comm) bool { _, ok := c.(F32Allreducer); return ok },
		allreduce:     func(c Comm, l []float64) []float64 { return c.(F32Allreducer).AllreduceSharedF32(l) },
		post:          func(c Comm, l []float64) *Request { return c.(F32Allreducer).IAllreduceSharedF32(l) },
	},
	TierI8: {
		name:       "i8",
		round:      func(dst, src []float64, off int) { i8RoundInto(dst, src, off, false) },
		addRounded: func(res, src []float64, off int) { i8RoundInto(res, src, off, true) },
		words:      perf.I8Words,
		beta:       perf.Machine.I8Beta,
		contrib:    FrameContribI8, result: FrameResultI8,
		payloadBytes:  i8PayloadLen,
		appendPayload: appendI8Payload,
		decodePayload: decodeI8Payload,
		capable:       func(c Comm) bool { _, ok := c.(I8Allreducer); return ok },
		allreduce:     func(c Comm, l []float64) []float64 { return c.(I8Allreducer).AllreduceSharedI8(l) },
		post:          func(c Comm, l []float64) *Request { return c.(I8Allreducer).IAllreduceSharedI8(l) },
	},
}

// String returns the CLI spelling of the tier.
func (t Tier) String() string {
	if t >= 0 && int(t) < len(tiers) {
		return tiers[t].name
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// ParseTier maps a fixed-tier spelling to a Tier. "", "off" and "f64"
// all select the uncompressed tier; "auto" is a solver-level policy,
// not a wire tier, and is rejected here.
func ParseTier(s string) (Tier, error) {
	if s == "" || s == "off" {
		return TierF64, nil
	}
	for t := range tiers {
		if s == tiers[t].name {
			return Tier(t), nil
		}
	}
	return TierF64, fmt.Errorf("dist: unknown compression tier %q (want off, f32 or i8)", s)
}

// codec returns the tier entry whose payload encoding frame kind k
// carries; every kind that is not a tiered contribution or result
// (hello, p2p, the plain collectives) ships full-precision words.
func (k FrameKind) codec() *tierSpec {
	for t := range tiers {
		if k == tiers[t].contrib || k == tiers[t].result {
			return &tiers[t]
		}
	}
	return &tiers[TierF64]
}

// MinI8Payload is the smallest payload (in values) the i8 tier applies
// to: shorter payloads — the 1-word objective reduction above all —
// would see up to ~0.4%% relative quantization error on a single
// scalar, far beyond the 1e-5 agreement the tier promises, while the
// chunk-scale overhead erases the byte savings anyway. EffectiveTier
// floors such payloads to f32 (~1e-7 relative error).
const MinI8Payload = 32

// EffectiveTier returns the tier actually used for an n-value payload:
// i8 requests on payloads shorter than MinI8Payload fall back to f32.
func EffectiveTier(t Tier, n int) Tier {
	if t == TierI8 && n < MinI8Payload {
		return TierF32
	}
	return t
}

// TierRound writes into dst the exact values src takes after one trip
// through the tier's wire: the identity for f64, F32Round per element
// for f32, I8RoundSlice for i8. dst and src may alias. Callers use it
// to derive error-feedback residuals locally (resid = z - Round(z)),
// which is deterministic and identical on every rank.
func TierRound(dst, src []float64, t Tier) { tiers[t].round(dst, src, 0) }

// combine is the shared sum-allreduce arithmetic at every tier over
// whole payloads: the single-rank collective and the reference every
// backend's segment-by-segment result (reduceSegment) is held to.
// Contributions arrive RAW (unquantized float64): rank 0's is quantized
// once and copied in (not summed into zeros, which would lose the sign
// of zero), the remaining contributions are quantized once each and
// added in rank order in float64, and the sum is quantized once more
// for the downlink. The i8 quantizer is not idempotent, so this
// once-per-hop discipline is what keeps a chan owner, which quantizes
// the raw payloads itself, and a tcp owner — which receives
// contributions already quantized by the frame codec and sends out the
// raw rank-order sum for the result frame's encode to quantize — bit-
// identical: decode(encode(x)) == round(x) on both sides of every hop.
// f32 (idempotent rounding) and f64 (the identity: copy, then
// res[i] += v) are special cases of the same sequence.
func combine(res []float64, contrib [][]float64, t Tier) {
	spec := &tiers[t]
	spec.round(res, contrib[0], 0)
	for _, c := range contrib[1:] {
		spec.addRounded(res, c, 0)
	}
	spec.round(res, res, 0)
}

// combineOne is the single-rank collective: a fresh slice holding
// combine over the lone contribution. A compressed tier still rounds
// (twice for i8: the contribution, then the "sum"), so P = 1 and P > 1
// runs agree on what reaches the iterates on every backend.
func combineOne(local []float64, t Tier) []float64 {
	out := make([]float64, len(local))
	combine(out, [][]float64{local}, t)
	return out
}

// F32Allreducer is the optional communicator capability behind the f32
// compression tier. The semantics are fixed across backends (combine):
// every rank's contribution is rounded to float32 (F32Round), the
// rounded contributions are summed in rank order in float64, and the
// sum is rounded to float32 before it is shared. Cost is charged at
// ceil(n/2) 64-bit words per tree level. Implemented by the chan, tcp
// and self backends.
type F32Allreducer interface {
	// AllreduceSharedF32 is AllreduceShared over the compressed wire.
	AllreduceSharedF32(local []float64) []float64
	// IAllreduceSharedF32 posts the compressed allreduce nonblocking.
	IAllreduceSharedF32(local []float64) *Request
}

// I8Allreducer is the optional communicator capability behind the int8
// dithered tier. Contributions are passed RAW (unquantized); the
// substrate quantizes exactly once per hop (combine). Cost is charged
// at perf.I8Words(n) words per tree level.
type I8Allreducer interface {
	// AllreduceSharedI8 is AllreduceShared over the int8 dithered wire.
	AllreduceSharedI8(local []float64) []float64
	// IAllreduceSharedI8 posts the int8 allreduce nonblocking.
	IAllreduceSharedI8(local []float64) *Request
}

// tieredComm is what a communicator of this package implements: one
// tier-parametric shared sum-allreduce and its nonblocking post.
type tieredComm interface {
	allreduceSharedTier(local []float64, t Tier) []float64
	iallreduceSharedTier(local []float64, t Tier) *Request
}

// tierForwarders gives an embedding communicator the per-tier method
// set of F32Allreducer and I8Allreducer, written once. The methods
// only forward into the embedder's tier-parametric implementation; no
// arithmetic, framing, profiling or accounting lives here. They exist
// because external decorators (bench's tracedComm) reach the tiers by
// asserting their inner Comm to the two capability interfaces; once
// such decorators carry one tiered method, the interfaces and this
// type can go.
type tierForwarders struct{ to tieredComm }

func (f tierForwarders) AllreduceSharedF32(l []float64) []float64 {
	return f.to.allreduceSharedTier(l, TierF32)
}
func (f tierForwarders) IAllreduceSharedF32(l []float64) *Request {
	return f.to.iallreduceSharedTier(l, TierF32)
}
func (f tierForwarders) AllreduceSharedI8(l []float64) []float64 {
	return f.to.allreduceSharedTier(l, TierI8)
}
func (f tierForwarders) IAllreduceSharedI8(l []float64) *Request {
	return f.to.iallreduceSharedTier(l, TierI8)
}

// SupportsTier reports whether communicator c can run tiered
// collectives at tier t, returning a descriptive error when it cannot.
// A decorator whose capability depends on what it wraps (bench's
// tracedComm) exposes its own SupportsTier method, consulted first: its
// tiered methods exist unconditionally, so a bare type assertion on it
// would claim capability the inner transport may lack.
func SupportsTier(c Comm, t Tier) error {
	if d, ok := c.(interface{ SupportsTier(Tier) error }); ok {
		return d.SupportsTier(t)
	}
	if !tiers[t].capable(c) {
		return fmt.Errorf("dist: transport does not implement the %v compressed collective", t)
	}
	return nil
}

// AllreduceSharedTier dispatches a shared sum-allreduce of local at
// tier t. The f64 tier is the plain AllreduceShared; the compressed
// tiers require the matching capability (SupportsTier).
func AllreduceSharedTier(c Comm, local []float64, t Tier) []float64 {
	return tiers[t].allreduce(c, local)
}

// IAllreduceSharedTier posts the tier-t shared allreduce nonblocking.
func IAllreduceSharedTier(c Comm, local []float64, t Tier) *Request {
	return tiers[t].post(c, local)
}

// AllreduceScalarSumTier sum-reduces the one scalar in buf at (the
// effective floor of) tier t and returns the sum. buf is the caller's,
// kept across calls, so the f64 reduction allocates nothing; it holds
// the sum afterwards only at f64. A 1-value payload always floors below
// i8 (EffectiveTier), so the worst case is the ~1e-7 relative error of
// a float32 rounding — the objective/eval reductions tolerate that, a
// 0.4%% int8 step they would not.
func AllreduceScalarSumTier(c Comm, buf []float64, t Tier) float64 {
	t = EffectiveTier(t, 1)
	if t == TierF64 {
		c.Allreduce(buf, OpSum)
		return buf[0]
	}
	return AllreduceSharedTier(c, buf, t)[0]
}

// chargeAllreduceTier charges one rank's share of a recursive-doubling
// allreduce of n values at tier t on p ranks: log2(P) messages, each
// moving the tier's word footprint of n values (two float32 values, or
// eight int8 codes plus chunk scales, pack into one accounting word),
// while the reduction still runs — and is charged — at n float64 adds
// per level. Used by blocking and nonblocking allreduces on every
// backend, and through AllreduceCostTier by lost stage-C attempts.
func chargeAllreduceTier(cost *perf.Cost, p, n int, t Tier) {
	lg := int64(perf.Log2Ceil(p))
	if lg == 0 {
		return
	}
	cost.AddMessages(lg, tiers[t].words(n))
	cost.AddFlops(lg * int64(n))
}

// AllreduceCostTier returns the per-rank tree cost of an n-value
// allreduce at tier t on p ranks: the quantity Request.Wait charges.
func AllreduceCostTier(p, n int, t Tier) perf.Cost {
	var c perf.Cost
	chargeAllreduceTier(&c, p, n, t)
	return c
}

// TierSeconds prices the tier-t allreduce of n values on p ranks under
// machine m, using the per-tier fitted betas (perf.Machine.F32Beta /
// I8Beta) so the auto policy can compare tiers on modeled time rather
// than raw words. It is a pure function of its arguments: every rank
// holding the same (broadcast) machine computes the same ranking.
func TierSeconds(m perf.Machine, p, n int, t Tier) float64 {
	lg := float64(perf.Log2Ceil(p))
	return lg * (m.Alpha + tiers[t].beta(m)*float64(tiers[t].words(n)))
}
