package dist

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// i8FromBytes builds a float64 payload from raw fuzz bytes, 8 bytes
// per value, so the fuzzer explores every bit pattern including NaN,
// infinities, denormals and mixed-magnitude chunks.
func i8FromBytes(data []byte) []float64 {
	vals := make([]float64, len(data)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return vals
}

// checkI8Segment asserts the property segment ownership rests on:
// encoding vals[lo:hi] at value offset lo, for lo on a chunk boundary,
// yields exactly the bytes that range takes in whole (the encoding of
// all of vals), and rounding it at that offset — stored or accumulated
// — yields exactly the values of rounded (I8RoundSlice of all of vals).
func checkI8Segment(t *testing.T, vals, rounded []float64, whole []byte, lo, hi int) {
	t.Helper()
	seg := appendI8Payload(nil, vals[lo:hi], lo)
	if want := whole[i8PayloadLen(lo) : i8PayloadLen(lo)+i8PayloadLen(hi-lo)]; !bytes.Equal(seg, want) {
		t.Fatalf("segment [%d,%d) of %d values encodes to\n %x\nbut holds\n %x\nin the whole payload's encoding",
			lo, hi, len(vals), seg, want)
	}
	got, acc := make([]float64, hi-lo), make([]float64, hi-lo)
	i8RoundInto(got, vals[lo:hi], lo, false)
	i8RoundInto(acc, vals[lo:hi], lo, true)
	for i := range got {
		want := math.Float64bits(rounded[lo+i])
		// acc started at +0, so it may differ from a stored -0 by sign.
		if math.Float64bits(got[i]) != want || (acc[i] != got[i] && !(math.IsNaN(acc[i]) && math.IsNaN(got[i]))) {
			t.Fatalf("segment [%d,%d) value %d rounds to %x (accumulated %x), whole payload gives %x",
				lo, hi, lo+i, math.Float64bits(got[i]), math.Float64bits(acc[i]), want)
		}
	}
}

// TestI8SegmentsEncodeAsTheWhole: every segment segBounds deals, for
// payloads with ragged last chunks and granules, is the whole-payload
// encoding and rounding restricted to its range.
func TestI8SegmentsEncodeAsTheWhole(t *testing.T) {
	for _, n := range segGrid {
		vals := tieredPayload(1, n)
		rounded := make([]float64, n)
		I8RoundSlice(rounded, vals)
		whole := appendI8Payload(nil, vals, 0)
		for _, p := range []int{1, 2, 3, 8} {
			for r := 0; r < p; r++ {
				lo, hi := segBounds(n, p, r)
				checkI8Segment(t, vals, rounded, whole, lo, hi)
			}
		}
	}
}

// FuzzI8Codec pins the contract the tiered collectives build on: for
// ANY payload, encoding an i8 frame and decoding it back yields
// exactly I8RoundSlice of the payload — the wire and the in-process
// quantizer are the same function — both are deterministic, and a
// chunk-aligned slice encoded at its offset is that range of the
// whole (checkI8Segment).
func FuzzI8Codec(f *testing.F) {
	f.Add([]byte{})
	seed := make([]byte, 0, 8*130)
	for i := 0; i < 130; i++ {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(float64(i-65)*1.7e-3))
		seed = append(seed, w[:]...)
	}
	f.Add(seed)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, 1e308, -127, 126.5}
	sp := make([]byte, 0, 8*len(special))
	for _, v := range special {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		sp = append(sp, w[:]...)
	}
	f.Add(sp)
	f.Add(append(append([]byte(nil), seed...), seed...)) // five chunks, the last ragged
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := i8FromBytes(data)
		enc := AppendFrame(nil, Frame{Kind: FrameContribI8, Rank: 1, Seq: 7, Payload: vals})
		wantLen := WireHeaderLen + i8PayloadLen(len(vals))
		if len(enc) != wantLen {
			t.Fatalf("encoded %d values to %d bytes, want %d", len(vals), len(enc), wantLen)
		}
		dec, n, err := DecodeFrame(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("decode: n=%d err=%v", n, err)
		}
		want := make([]float64, len(vals))
		I8RoundSlice(want, vals)
		for i := range want {
			if math.Float64bits(dec.Payload[i]) != math.Float64bits(want[i]) {
				t.Fatalf("payload[%d]: decode %x, I8RoundSlice %x (in %x)",
					i, math.Float64bits(dec.Payload[i]), math.Float64bits(want[i]),
					math.Float64bits(vals[i]))
			}
		}
		// Segments: every chunk-aligned split point, and the slice
		// between the first and the last of them.
		whole := enc[WireHeaderLen:]
		for cut := perf.I8ChunkLen; cut < len(vals); cut += perf.I8ChunkLen {
			checkI8Segment(t, vals, want, whole, 0, cut)
			checkI8Segment(t, vals, want, whole, cut, len(vals))
			checkI8Segment(t, vals, want, whole, perf.I8ChunkLen, cut)
		}
		// Determinism: a second quantization of the same input is
		// bit-identical (the dither is a pure function of the index).
		again := make([]float64, len(vals))
		I8RoundSlice(again, vals)
		for i := range again {
			if math.Float64bits(again[i]) != math.Float64bits(want[i]) {
				t.Fatalf("I8RoundSlice not deterministic at %d", i)
			}
		}
		// Quantization error bound: |q - v| <= scale per value (one
		// dithered step), with scale = F32Round(maxabs/127) per chunk.
		for base := 0; base < len(vals); base += perf.I8ChunkLen {
			end := base + perf.I8ChunkLen
			if end > len(vals) {
				end = len(vals)
			}
			scale := i8ChunkScale(vals[base:end])
			if math.IsInf(scale, 0) || math.IsNaN(scale) {
				continue // chunk holds an Inf or overflow; codes clamp instead
			}
			for i := base; i < end; i++ {
				v := vals[i]
				if math.IsNaN(v) || math.Abs(v) > 127*scale {
					continue
				}
				if diff := math.Abs(want[i] - v); diff > scale*1.0000001 {
					t.Fatalf("value %d: |%g - %g| = %g exceeds scale %g", i, want[i], v, diff, scale)
				}
			}
		}
	})
}

// TestI8RoundSliceBasics pins the deterministic small-value behavior of
// the quantizer directly.
func TestI8RoundSliceBasics(t *testing.T) {
	t.Run("zeros", func(t *testing.T) {
		in := make([]float64, 100)
		out := make([]float64, 100)
		I8RoundSlice(out, in)
		for i, v := range out {
			if v != 0 {
				t.Fatalf("out[%d] = %g, want 0", i, v)
			}
		}
	})
	t.Run("alias", func(t *testing.T) {
		a := []float64{1, -2, 3.5, 1e-9}
		b := append([]float64(nil), a...)
		I8RoundSlice(a, a)
		out := make([]float64, len(b))
		I8RoundSlice(out, b)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(out[i]) {
				t.Fatalf("aliased quantize diverges at %d: %g vs %g", i, a[i], out[i])
			}
		}
	})
	t.Run("per-chunk scales", func(t *testing.T) {
		// Two chunks of wildly different magnitude: each must be
		// quantized against its own scale, keeping the error relative.
		in := make([]float64, 2*perf.I8ChunkLen)
		for i := 0; i < perf.I8ChunkLen; i++ {
			in[i] = 1e6 * float64(i%7-3)
			in[perf.I8ChunkLen+i] = 1e-6 * float64(i%5-2)
		}
		out := make([]float64, len(in))
		I8RoundSlice(out, in)
		for i, v := range in {
			bound := 3e6 / 127 * 1.01 // chunk maxabs is 3e6
			if i >= perf.I8ChunkLen {
				bound = 2e-6 / 127 * 1.01 // chunk maxabs is 2e-6
			}
			if math.Abs(out[i]-v) > bound {
				t.Fatalf("value %d: |%g - %g| exceeds chunk bound %g", i, out[i], v, bound)
			}
		}
	})
	t.Run("words accounting", func(t *testing.T) {
		for _, n := range []int{0, 1, 7, 8, 63, 64, 65, 128, 1000} {
			gotBytes := i8PayloadLen(n)
			wantChunks := 0
			if n > 0 {
				wantChunks = (n + perf.I8ChunkLen - 1) / perf.I8ChunkLen
			}
			if gotBytes != n+4*wantChunks {
				t.Fatalf("i8PayloadLen(%d) = %d, want %d", n, gotBytes, n+4*wantChunks)
			}
			if w := perf.I8Words(n); n > 0 && 8*w < int64(gotBytes) {
				t.Fatalf("I8Words(%d) = %d words under-counts %d payload bytes", n, w, gotBytes)
			}
		}
	})
}
