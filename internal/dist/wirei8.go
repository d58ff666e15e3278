package dist

import (
	"encoding/binary"
	"math"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// Int8 dithered payload codec for the third compression tier. Values
// are encoded per chunk of perf.I8ChunkLen elements: the chunk's
// max-abs magnitude fixes a shared float32 scale s = F32Round(max/127),
// and each value becomes the signed byte
//
//	code(v) = clamp(floor(v/s + u(i)), -127, 127)
//
// where u(i) in [0,1) is a deterministic dither derived by hashing the
// element's global index i — never the collective sequence number or
// the rank — so every backend (chan, tcp, self), every rank and every
// rerun computes the identical rounding for the identical slice. The
// dither makes the rounding unbiased in expectation over positions,
// and the per-rank error-feedback residual (solvercore) recycles what
// bias remains.
//
// The wire layout per chunk is a 4-byte float32 scale followed by one
// byte per code; decode is float64(code) * scale. Like the f32 codec,
// what crosses the wire is exactly reproducible in process:
// decode(encode(x)) == I8RoundSlice(x) for every input, the property
// the fuzz target pins. Quantization is NOT idempotent (re-encoding a
// decoded slice can pick a different scale), so the collectives ship
// raw float64 contributions and quantize exactly once per hop — see
// combine.

// i8Dither returns the deterministic dither u(i) in [0,1) of global
// element index i (splitmix64 finalizer over the index).
func i8Dither(i int) float64 {
	x := uint64(i)*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) * (1.0 / (1 << 53))
}

// i8ChunkScale returns the shared scale of one chunk: the float32
// rounding of maxabs/127. NaN values are ignored for the scale (they
// encode as code 0); an all-zero chunk yields scale 0.
func i8ChunkScale(vals []float64) float64 {
	maxabs := 0.0
	for _, v := range vals {
		if a := math.Abs(v); a > maxabs {
			maxabs = a
		}
	}
	return F32Round(maxabs / 127)
}

// i8Code quantizes one value against its chunk scale and dither.
func i8Code(v, scale, u float64) int8 {
	if scale == 0 {
		return 0
	}
	t := v/scale + u
	if math.IsNaN(t) {
		return 0
	}
	if t >= 127 {
		return 127
	}
	if t <= -127 {
		return -127
	}
	return int8(math.Floor(t))
}

// I8RoundSlice writes into dst the exact values src takes after one
// trip through the int8 dithered wire: per-chunk max-abs float32
// scaling, deterministic index-keyed dithered rounding, decode as
// code*scale. dst and src may alias. This is the in-process arithmetic
// every backend quantizes with, the i8 analogue of F32Round — and the
// function callers use to derive error-feedback residuals locally
// (resid = z - I8RoundSlice(z)), identically on every rank.
func I8RoundSlice(dst, src []float64) { i8RoundInto(dst, src, 0, false) }

// i8RoundInto stores (or, with add set, accumulates) the int8 wire
// image of src into dst, one chunk scale at a time. src is the slice at
// value offset off of the payload being quantized: with off a multiple
// of perf.I8ChunkLen the chunks and the index-keyed dither are those of
// the whole payload, so rounding a payload segment by segment gives the
// values of rounding it whole.
func i8RoundInto(dst, src []float64, off int, add bool) {
	if len(dst) != len(src) {
		panic("dist: I8RoundSlice length mismatch")
	}
	for base := 0; base < len(src); base += perf.I8ChunkLen {
		end := base + perf.I8ChunkLen
		if end > len(src) {
			end = len(src)
		}
		scale := i8ChunkScale(src[base:end])
		for i := base; i < end; i++ {
			q := float64(i8Code(src[i], scale, i8Dither(off+i))) * scale
			if add {
				dst[i] += q
			} else {
				dst[i] = q
			}
		}
	}
}

// i8PayloadLen returns the byte length of an n-value int8 payload: one
// byte per code plus a 4-byte scale per chunk.
func i8PayloadLen(n int) int {
	if n <= 0 {
		return 0
	}
	chunks := (n + perf.I8ChunkLen - 1) / perf.I8ChunkLen
	return n + 4*chunks
}

// appendI8Payload appends the int8 encoding of vals, the slice at value
// offset off of the payload (i8RoundInto), to dst. The encode IS the
// quantization: the payload decodes to exactly i8RoundInto(vals, off).
func appendI8Payload(dst []byte, vals []float64, off int) []byte {
	dst, out := extend(dst, i8PayloadLen(len(vals)))
	for base := 0; base < len(vals); base += perf.I8ChunkLen {
		end := base + perf.I8ChunkLen
		if end > len(vals) {
			end = len(vals)
		}
		scale := i8ChunkScale(vals[base:end])
		binary.LittleEndian.PutUint32(out, f32ToWire(scale))
		out = out[4:]
		for i := base; i < end; i++ {
			out[i-base] = byte(i8Code(vals[i], scale, i8Dither(off+i)))
		}
		out = out[end-base:]
	}
	return dst
}

// decodeI8Payload decodes an n-value int8 payload (n = len(dst)) from
// body, which must hold exactly i8PayloadLen(n) bytes.
func decodeI8Payload(dst []float64, body []byte) {
	off := 0
	for base := 0; base < len(dst); base += perf.I8ChunkLen {
		end := base + perf.I8ChunkLen
		if end > len(dst) {
			end = len(dst)
		}
		scale := f32FromWire(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		for i := base; i < end; i++ {
			dst[i] = float64(int8(body[off])) * scale
			off++
		}
	}
}
