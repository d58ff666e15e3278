package dist

import (
	"encoding/binary"
	"math"
)

// Float32 payload conversions for the compressed collective frames.
// The contract mirrors the full-precision wire: what crosses the wire
// is a bit pattern, and decode(encode(x)) is the identity on 32-bit
// patterns — including NaNs, whose sign and mantissa payload are
// carried through the float64 representation explicitly because Go's
// float conversions do not promise NaN payload preservation. Every
// backend routes its rounding through these helpers (the in-process
// transports never touch bytes but still round through F32Round), so
// the compressed collective is bit-identical across chan, tcp and
// self — the same property the conformance suite pins for the
// full-precision surface.

// f32ToWire rounds v to float32 and returns its IEEE-754 bit pattern.
// NaN sign and the top 23 mantissa payload bits survive explicitly.
func f32ToWire(v float64) uint32 {
	if math.IsNaN(v) {
		b := math.Float64bits(v)
		return uint32(b>>63)<<31 | 0x7f800000 | uint32(b>>29)&0x007fffff
	}
	return math.Float32bits(float32(v))
}

// f32FromWire widens a float32 bit pattern to float64. NaN sign and
// mantissa payload survive explicitly, so f32ToWire(f32FromWire(bits))
// == bits for every 32-bit pattern.
func f32FromWire(bits uint32) float64 {
	if bits&0x7f800000 == 0x7f800000 && bits&0x007fffff != 0 {
		return math.Float64frombits(uint64(bits>>31)<<63 | 0x7ff0000000000000 | uint64(bits&0x007fffff)<<29)
	}
	return float64(math.Float32frombits(bits))
}

// F32Round is the exact value a float64 takes after one trip through
// the compressed wire: round to float32, widen back. Finite values in
// float32 range round to the nearest float32; NaNs keep sign and
// payload. The compressed exchanger quantizes with it and the
// in-process backends round contributions and results with it, keeping
// every transport's arithmetic identical to the byte-level codec.
func F32Round(v float64) float64 {
	return f32FromWire(f32ToWire(v))
}

// appendF32Payload appends vals as little-endian float32 bit patterns.
func appendF32Payload(dst []byte, vals []float64, _ int) []byte {
	dst, out := extend(dst, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], f32ToWire(v))
	}
	return dst
}

// decodeF32Payload widens len(dst) float32 bit patterns from body.
func decodeF32Payload(dst []float64, body []byte) {
	for i := range dst {
		dst[i] = f32FromWire(binary.LittleEndian.Uint32(body[4*i:]))
	}
}
