package dist

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestF32WireBitIdentity: the 32-bit codec is a bijection on wire
// patterns — f32ToWire(f32FromWire(bits)) == bits for every pattern
// class, including NaN payloads, infinities, signed zero and
// denormals. This is the property that makes a decoded-then-re-encoded
// compressed frame byte-identical (the FuzzWireFrame invariant).
func TestF32WireBitIdentity(t *testing.T) {
	patterns := []uint32{
		0, 0x80000000, // +-0
		0x3f800000, 0xbf800000, // +-1
		0x7f800000, 0xff800000, // +-Inf
		0x7fc00000, 0xffc00000, // quiet NaN
		0x7f800001, 0xff800001, // signaling NaN payloads
		0x7fffffff, 0xffffffff, // max-payload NaN
		0x00000001, 0x80000001, // smallest denormals
		0x007fffff, // largest denormal
		0x00800000, // smallest normal
		0x7f7fffff, // largest finite
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1_000_000; i++ {
		patterns = append(patterns, rng.Uint32())
	}
	for _, bits := range patterns {
		if got := f32ToWire(f32FromWire(bits)); got != bits {
			t.Fatalf("f32 wire round-trip: %#08x -> %#08x", bits, got)
		}
	}
}

// TestF32Round: the quantizer agrees with the hardware conversion on
// finite values, is idempotent, and preserves NaN sign and payload
// through the float64 representation.
func TestF32Round(t *testing.T) {
	finites := []float64{0, math.Copysign(0, -1), 1, -1, 1.0 / 3, 1e30, -1e30,
		5e-324, 1e300, -1e300, math.Inf(1), math.Inf(-1), math.Pi}
	for _, v := range finites {
		want := float64(float32(v))
		got := F32Round(v)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("F32Round(%g) = %x, want %x", v, math.Float64bits(got), math.Float64bits(want))
		}
		if math.Float64bits(F32Round(got)) != math.Float64bits(got) {
			t.Fatalf("F32Round not idempotent at %g", v)
		}
	}
	// A NaN with a payload in the float32-representable bits survives
	// the round trip with sign and payload intact.
	nan := math.Float64frombits(1<<63 | 0x7ff0000000000000 | uint64(0x555555)<<29)
	r := F32Round(nan)
	if !math.IsNaN(r) || math.Float64bits(r) != math.Float64bits(nan) {
		t.Fatalf("F32Round dropped NaN sign/payload: %x -> %x",
			math.Float64bits(nan), math.Float64bits(r))
	}
}

// TestWireFrameF32RoundTrip: compressed frames ship 4-byte words, and
// a payload of float32-representable values survives encode/decode
// bit-exactly: the f32 wire rounding is idempotent, unlike i8's.
func TestWireFrameF32RoundTrip(t *testing.T) {
	vals := []float64{1.5, -0.25, 1e20, math.Copysign(0, -1), math.Inf(1), math.NaN()}
	quant := make([]float64, len(vals))
	for i, v := range vals {
		quant[i] = F32Round(v)
	}
	in := Frame{Kind: FrameResultF32, Rank: 1, Seq: 42, Payload: quant}
	enc := AppendFrame(nil, in)
	if len(enc) != WireHeaderLen+4*len(quant) {
		t.Fatalf("f32 frame encoded %d bytes, want %d", len(enc), WireHeaderLen+4*len(quant))
	}
	got, err := ReadFrame(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	checkFrameEqual(t, in, got)

	// A non-quantized payload decodes to its F32Round image: encoding is
	// where the rounding happens.
	raw := Frame{Kind: FrameContribF32, Rank: 2, Seq: 43, Payload: []float64{math.Pi, 1.0 / 3}}
	got2, _, err := DecodeFrame(AppendFrame(nil, raw))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range raw.Payload {
		if math.Float64bits(got2.Payload[i]) != math.Float64bits(F32Round(v)) {
			t.Fatalf("word %d: decoded %x, want F32Round image %x",
				i, math.Float64bits(got2.Payload[i]), math.Float64bits(F32Round(v)))
		}
	}
}
