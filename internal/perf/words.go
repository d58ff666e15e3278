package perf

// Wire accounting of compressed collective payloads, in the 64-bit
// words the alpha-beta model counts. These are the single source of
// truth for the per-tier payload footprints: the dist tier table
// (chargeAllreduceTier, TierSeconds) and the wire codec's chunk layout
// both derive from here, so the charged words cannot drift from what a
// frame carries.

// I8ChunkLen is the chunk length of the int8 dithered codec: each chunk
// of up to 64 values shares one float32 max-abs scale. The dist wire
// codec and this accounting must agree on it.
const I8ChunkLen = 64

// F32Words returns the 64-bit-word footprint of n float32 payload
// values: two values pack into one accounting word.
func F32Words(n int) int64 {
	return int64((n + 1) / 2)
}

// I8Words returns the 64-bit-word footprint of n int8 payload values:
// one byte per code (eight codes per word) plus one float32 scale per
// I8ChunkLen-value chunk (two scales per word).
func I8Words(n int) int64 {
	if n <= 0 {
		return 0
	}
	chunks := (n + I8ChunkLen - 1) / I8ChunkLen
	return int64((n+7)/8) + int64((chunks+1)/2)
}
