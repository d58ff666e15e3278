package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// The TCP transport moves float64 payloads in length-prefixed frames.
// A frame is a fixed 16-byte header followed by the payload words in
// little-endian IEEE-754 bit patterns — bit patterns, not values, so a
// payload survives the wire bit-identically, NaN payloads included
// (the same property the golden fixtures pin for in-process runs).
//
//	offset  size  field
//	0       2     magic "rf"
//	2       1     version (wireVersion)
//	3       1     kind (FrameKind)
//	4       4     sender rank, uint32 LE
//	8       4     collective sequence number, uint32 LE
//	12      4     payload length in 8-byte words, uint32 LE
//	16      8n    payload, n little-endian float64 bit patterns

// FrameKind tags what a frame carries.
type FrameKind uint8

// Frame kinds. Hello opens a mesh connection and authenticates the
// dialer's rank; Contrib carries a rank's collective contribution to
// a rank that combines it (every receiver of an exchange, the owner of
// a shared-allreduce segment); Result carries an owner's
// rank-order-combined segment back; P2P carries a Send/Recv message. The F32 variants are
// the compressed-payload collective frames: the payload ships as
// 32-bit IEEE-754 words (the header's length field counts those 4-byte
// words), halving the wire footprint of a Hessian batch. The I8
// variants are the int8 dithered tier: the header's length field
// counts payload values, and the body carries one signed byte per
// value plus a 4-byte float32 scale per perf.I8ChunkLen-value chunk
// (wirei8.go) — encoding the frame IS the quantization, so a decoded
// I8 payload equals I8RoundSlice of what the sender passed in.
const (
	FrameHello FrameKind = 1 + iota
	FrameContrib
	FrameResult
	FrameP2P
	FrameContribF32
	FrameResultF32
	FrameContribI8
	FrameResultI8
	frameKindEnd // one past the last valid kind
)

const (
	wireMagic0  = 'r'
	wireMagic1  = 'f'
	wireVersion = 1

	// WireHeaderLen is the fixed frame header size in bytes.
	WireHeaderLen = 16

	// MaxFrameWords caps a frame payload at 64 Mi words (512 MiB): far
	// above any Hessian batch this repo ships, low enough that a
	// corrupt length field cannot drive a multi-gigabyte allocation.
	MaxFrameWords = 1 << 26
)

// Frame is one decoded wire frame.
type Frame struct {
	// Kind tags the frame's role.
	Kind FrameKind
	// Rank is the sender's rank.
	Rank uint32
	// Seq is the collective sequence number (0 for P2P frames).
	Seq uint32
	// Payload is the float64 payload, bit-exact across the wire.
	Payload []float64
}

// Wire codec errors. ReadFrame and DecodeFrame return them wrapped
// with position context; errors.Is matches the sentinel.
var (
	ErrBadMagic    = errors.New("dist: frame has bad magic")
	ErrBadVersion  = errors.New("dist: frame has unknown wire version")
	ErrBadKind     = errors.New("dist: frame has invalid kind")
	ErrFrameTooBig = errors.New("dist: frame payload exceeds MaxFrameWords")
)

// AppendFrame appends the wire encoding of f to dst and returns the
// extended slice. It panics when the payload exceeds MaxFrameWords:
// oversized frames are a programming error on the send side, not a
// recoverable wire condition.
func AppendFrame(dst []byte, f Frame) []byte { return appendFrameAt(dst, f, 0) }

// appendFrameAt is AppendFrame for a payload that is the slice starting
// at value offset off of a larger collective payload: a position-keyed
// codec (i8) encodes it to exactly the bytes that range takes in the
// encoding of the whole, provided off is a multiple of its chunk length.
func appendFrameAt(dst []byte, f Frame, off int) []byte {
	if len(f.Payload) > MaxFrameWords {
		panic(fmt.Sprintf("dist: frame payload %d words exceeds MaxFrameWords", len(f.Payload)))
	}
	var hdr [WireHeaderLen]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = wireMagic0, wireMagic1, wireVersion, byte(f.Kind)
	binary.LittleEndian.PutUint32(hdr[4:8], f.Rank)
	binary.LittleEndian.PutUint32(hdr[8:12], f.Seq)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(f.Payload)))
	dst = append(dst, hdr[:]...)
	return f.Kind.codec().appendPayload(dst, f.Payload, off)
}

// extend grows dst by n bytes in one step and returns the extended
// slice and the new tail, which the payload encoders fill in place: one
// capacity check per frame instead of one per word.
func extend(dst []byte, n int) (all, tail []byte) {
	all = slices.Grow(dst, n)[:len(dst)+n]
	return all, all[len(dst):]
}

// appendF64Payload appends vals as little-endian float64 bit patterns.
func appendF64Payload(dst []byte, vals []float64, _ int) []byte {
	dst, out := extend(dst, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return dst
}

// decodeF64Payload decodes len(dst) float64 bit patterns from body.
func decodeF64Payload(dst []float64, body []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
}

// parseHeader validates a frame header and returns (kind, rank, seq,
// payload words).
func parseHeader(hdr []byte) (FrameKind, uint32, uint32, int, error) {
	if hdr[0] != wireMagic0 || hdr[1] != wireMagic1 {
		return 0, 0, 0, 0, fmt.Errorf("%w: %#x %#x", ErrBadMagic, hdr[0], hdr[1])
	}
	if hdr[2] != wireVersion {
		return 0, 0, 0, 0, fmt.Errorf("%w: %d", ErrBadVersion, hdr[2])
	}
	kind := FrameKind(hdr[3])
	if kind == 0 || kind >= frameKindEnd {
		return 0, 0, 0, 0, fmt.Errorf("%w: %d", ErrBadKind, hdr[3])
	}
	rank := binary.LittleEndian.Uint32(hdr[4:8])
	seq := binary.LittleEndian.Uint32(hdr[8:12])
	nwords := binary.LittleEndian.Uint32(hdr[12:16])
	if nwords > MaxFrameWords {
		return 0, 0, 0, 0, fmt.Errorf("%w: %d words", ErrFrameTooBig, nwords)
	}
	return kind, rank, seq, int(nwords), nil
}

// DecodeFrame parses one frame from the front of buf, returning the
// frame and the number of bytes consumed. A short buffer returns
// io.ErrUnexpectedEOF; a corrupt header returns the matching sentinel
// error. The payload is freshly allocated, never aliasing buf.
func DecodeFrame(buf []byte) (Frame, int, error) {
	if len(buf) < WireHeaderLen {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	kind, rank, seq, nwords, err := parseHeader(buf[:WireHeaderLen])
	if err != nil {
		return Frame{}, 0, err
	}
	codec := kind.codec()
	total := WireHeaderLen + codec.payloadBytes(nwords)
	if len(buf) < total {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	f := Frame{Kind: kind, Rank: rank, Seq: seq}
	if nwords > 0 {
		f.Payload = make([]float64, nwords)
		codec.decodePayload(f.Payload, buf[WireHeaderLen:total])
	}
	return f, total, nil
}

// frameReader reads frames off one stream through a reusable body
// scratch, so a long-lived connection allocates per frame only what the
// caller keeps (the decoded payload), not the bytes it arrived in.
type frameReader struct {
	r    io.Reader
	hdr  [WireHeaderLen]byte
	body []byte
}

// header reads and validates the next frame header, returning the
// frame without its payload and the payload length in values. A clean
// EOF before any header byte returns io.EOF.
func (fr *frameReader) header() (Frame, int, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return Frame{}, 0, err
	}
	kind, rank, seq, nwords, err := parseHeader(fr.hdr[:])
	return Frame{Kind: kind, Rank: rank, Seq: seq}, nwords, err
}

// payload reads the body of a kind frame whose header announced
// len(dst) payload values and decodes it into dst.
func (fr *frameReader) payload(kind FrameKind, dst []float64) error {
	if len(dst) == 0 {
		return nil
	}
	codec := kind.codec()
	n := codec.payloadBytes(len(dst))
	if cap(fr.body) < n {
		fr.body = make([]byte, n)
	}
	body := fr.body[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	codec.decodePayload(dst, body)
	return nil
}

// fresh reads the body of a kind frame of nwords values into a newly
// allocated payload the caller may retain.
func (fr *frameReader) fresh(kind FrameKind, nwords int) ([]float64, error) {
	if nwords == 0 {
		return nil, nil
	}
	payload := make([]float64, nwords)
	return payload, fr.payload(kind, payload)
}

// ReadFrame reads exactly one frame from r. A clean EOF before any
// header byte returns io.EOF (the peer closed between frames); a
// truncation inside a frame returns io.ErrUnexpectedEOF. The payload
// is freshly allocated per frame, so callers may retain it.
func ReadFrame(r io.Reader) (Frame, error) {
	fr := frameReader{r: r}
	f, nwords, err := fr.header()
	if err == nil {
		f.Payload, err = fr.fresh(f.Kind, nwords)
	}
	if err != nil {
		return Frame{}, err
	}
	return f, nil
}
