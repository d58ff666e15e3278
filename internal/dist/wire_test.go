package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// TestWireFrameRoundTrip: frames survive encode/decode bit-exactly,
// including payloads whose values are not preserved by text formatting
// (NaN payloads, signed zero, denormals).
func TestWireFrameRoundTrip(t *testing.T) {
	payloads := [][]float64{
		nil,
		{0},
		{1, -1, 0.5},
		{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324},
		make([]float64, 1000),
	}
	for i, p := range payloads {
		in := Frame{Kind: FrameContrib, Rank: 3, Seq: uint32(100 + i), Payload: p}
		enc := AppendFrame(nil, in)
		if len(enc) != WireHeaderLen+8*len(p) {
			t.Fatalf("frame %d: encoded %d bytes", i, len(enc))
		}

		// Stream decode.
		got, err := ReadFrame(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		checkFrameEqual(t, in, got)

		// Buffer decode, with trailing bytes present.
		got2, n, err := DecodeFrame(append(enc, 0xEE, 0xFF))
		if err != nil || n != len(enc) {
			t.Fatalf("frame %d: DecodeFrame n=%d err=%v", i, n, err)
		}
		checkFrameEqual(t, in, got2)
	}
}

func checkFrameEqual(t *testing.T, want, got Frame) {
	t.Helper()
	if got.Kind != want.Kind || got.Rank != want.Rank || got.Seq != want.Seq || len(got.Payload) != len(want.Payload) {
		t.Fatalf("frame mismatch: want %+v got %+v", want, got)
	}
	for j := range want.Payload {
		if math.Float64bits(want.Payload[j]) != math.Float64bits(got.Payload[j]) {
			t.Fatalf("payload word %d: %x != %x", j,
				math.Float64bits(want.Payload[j]), math.Float64bits(got.Payload[j]))
		}
	}
}

// TestPayloadEncodersMatchPerWordAppend: the pre-sized single-pass
// encoders write exactly the bytes of the per-word append loops they
// replaced — NaN payloads, both zeros, denormals and values float32
// cannot hold included — after whatever dst already holds, whether or
// not dst has room.
func TestPayloadEncodersMatchPerWordAppend(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1.5, math.Pi, 5e-324, -2.2250738585072014e-308, 1e308, 1e-60,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef),
		math.Float64frombits(0xfff0_0000_0000_0001), math.Float64frombits(0x7ff4_5555_5555_5555),
	}
	for i := 0; i < 300; i++ {
		vals = append(vals, math.Sin(float64(i))*math.Pow(10, float64(i%40-20)))
	}
	var want64, want32 []byte
	for _, v := range vals {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		want64 = append(want64, w[:]...)
		binary.LittleEndian.PutUint32(w[:4], f32ToWire(v))
		want32 = append(want32, w[:4]...)
	}
	prefix := []byte("hdr")
	for _, room := range []int{0, 1 << 16} {
		for name, tc := range map[string]struct {
			enc  func(dst []byte, vals []float64, off int) []byte
			want []byte
		}{"f64": {appendF64Payload, want64}, "f32": {appendF32Payload, want32}} {
			got := tc.enc(append(make([]byte, 0, room), prefix...), vals, 0)
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], tc.want) {
				t.Fatalf("%s with room for %d bytes: encoder and per-word append disagree", name, room)
			}
		}
	}
	if got := appendF64Payload(prefix, nil, 0); !bytes.Equal(got, prefix) {
		t.Fatalf("empty payload appended %x", got)
	}
}

// TestWireFrameRejectsCorruptHeaders: every corrupt-header class maps
// to its sentinel error, and truncations map to the io errors.
func TestWireFrameRejectsCorruptHeaders(t *testing.T) {
	good := AppendFrame(nil, Frame{Kind: FrameP2P, Rank: 1, Payload: []float64{7}})

	corrupt := func(off int, b byte) []byte {
		c := append([]byte(nil), good...)
		c[off] = b
		return c
	}
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"bad magic", corrupt(0, 'x'), ErrBadMagic},
		{"bad version", corrupt(2, 99), ErrBadVersion},
		{"zero kind", corrupt(3, 0), ErrBadKind},
		{"kind past end", corrupt(3, byte(frameKindEnd)), ErrBadKind},
		{"truncated header", good[:WireHeaderLen-1], io.ErrUnexpectedEOF},
		{"truncated payload", good[:len(good)-3], io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFrame(tc.buf); !errors.Is(err, tc.want) {
			t.Errorf("DecodeFrame %s: err = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := ReadFrame(bytes.NewReader(tc.buf)); !errors.Is(err, tc.want) {
			t.Errorf("ReadFrame %s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// Oversized length field: rejected before any allocation happens.
	big := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(big[12:16], MaxFrameWords+1)
	if _, _, err := DecodeFrame(big); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("oversized: err = %v, want ErrFrameTooBig", err)
	}

	// Clean EOF between frames is io.EOF, not an error wrapper.
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}

	// Oversized sends are a programming error and panic.
	defer func() {
		if recover() == nil {
			t.Error("AppendFrame accepted an oversized payload without panicking")
		}
	}()
	AppendFrame(nil, Frame{Kind: FrameP2P, Payload: make([]float64, MaxFrameWords+1)})
}

// TestWireFrameStreaming: back-to-back frames on one stream decode in
// order — the shape of a real mesh connection.
func TestWireFrameStreaming(t *testing.T) {
	var stream []byte
	for i := 0; i < 10; i++ {
		stream = AppendFrame(stream, Frame{
			Kind: FrameContrib, Rank: uint32(i % 4), Seq: uint32(i),
			Payload: []float64{float64(i), float64(-i)},
		})
	}
	r := bytes.NewReader(stream)
	for i := 0; i < 10; i++ {
		f, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Seq != uint32(i) || f.Payload[0] != float64(i) {
			t.Fatalf("frame %d decoded as %+v", i, f)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// FuzzWireFrame hammers the decoder with arbitrary bytes: it must
// never panic or over-allocate, and whatever it accepts must re-encode
// to the exact bytes it consumed (decode/encode round-trip identity).
func FuzzWireFrame(f *testing.F) {
	f.Add(AppendFrame(nil, Frame{Kind: FrameContrib, Rank: 2, Seq: 9, Payload: []float64{1.5, -2.5}}))
	f.Add(AppendFrame(nil, Frame{Kind: FrameHello, Rank: 1}))
	f.Add(AppendFrame(nil, Frame{Kind: FrameContribF32, Rank: 3, Seq: 4, Payload: []float64{0.25, -8, math.NaN()}}))
	f.Add(AppendFrame(nil, Frame{Kind: FrameResultF32, Rank: 0, Seq: 4, Payload: []float64{1e30, 5e-324, math.Copysign(0, -1)}}))
	f.Add([]byte("rf\x01\x02garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, n, err := DecodeFrame(data)
		if err != nil {
			// Rejected input must identify as one of the declared
			// failure modes, never an unclassified error.
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) &&
				!errors.Is(err, ErrBadKind) && !errors.Is(err, ErrFrameTooBig) &&
				!errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		if n < WireHeaderLen || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if frame.Kind.codec() == &tiers[TierI8] {
			// The i8 codec quantizes rather than preserves bits, so a
			// decoded frame does not re-encode to the same bytes. Its
			// invariant is the codec property instead: encoding any
			// payload and decoding it back equals I8RoundSlice of the
			// payload (FuzzI8Codec hammers this directly).
			re := AppendFrame(nil, frame)
			rf, _, rerr := DecodeFrame(re)
			if rerr != nil {
				t.Fatalf("re-encoded i8 frame rejected: %v", rerr)
			}
			want := make([]float64, len(frame.Payload))
			I8RoundSlice(want, frame.Payload)
			for i := range want {
				if math.Float64bits(rf.Payload[i]) != math.Float64bits(want[i]) {
					t.Fatalf("i8 re-encode: payload[%d] = %x, want I8RoundSlice %x",
						i, math.Float64bits(rf.Payload[i]), math.Float64bits(want[i]))
				}
			}
		} else {
			// Round-trip: re-encoding the accepted frame reproduces the
			// consumed bytes exactly.
			re := AppendFrame(nil, frame)
			if !bytes.Equal(re, data[:n]) {
				t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data[:n], re)
			}
		}
		// The stream reader must agree with the buffer decoder.
		sf, serr := ReadFrame(bytes.NewReader(data))
		if serr != nil {
			t.Fatalf("ReadFrame rejected what DecodeFrame accepted: %v", serr)
		}
		checkFrameEqual(t, frame, sf)
	})
}
