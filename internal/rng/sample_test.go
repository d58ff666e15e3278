package rng

import (
	"slices"
	"sync"
	"testing"
)

// refSample is the map-backed partial Fisher-Yates SampleWithoutReplacement
// ran before the pooled position table: the reference AppendSample must
// match output for output and state for state.
func refSample(r *Rng, n, k int) []int {
	out := make([]int, k)
	swapped := make(map[int]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		vi, ok := swapped[i]
		if !ok {
			vi = i
		}
		vj, ok := swapped[j]
		if !ok {
			vj = j
		}
		out[i] = vj
		swapped[j] = vi
		swapped[i] = vj
	}
	return out
}

// sampleShape is one (n, k) draw size.
type sampleShape struct {
	name string
	n, k int
}

// benchShapes are the (m, m̄ = 0.1 m) draws of the repository
// benchmark's datasets: covtype (ls_lat_tcp, serve_cold), mnist
// (ls_bw_tcp, ls_screen_tcp, serve_hot) and epsilon (ls_fill_chan).
var benchShapes = []sampleShape{
	{"covtype24000_2400", 24000, 2400},
	{"mnist8000_800", 8000, 800},
	{"epsilon4000_400", 4000, 400},
}

// checkAgainstRef draws (n, k) from r into dst and from a copy of r
// through refSample, and fails unless the outputs and the generators'
// next values agree. It returns the extended dst.
func checkAgainstRef(t *testing.T, r *Rng, dst []int, n, k int) []int {
	t.Helper()
	ref := *r
	base := len(dst)
	dst = r.AppendSample(dst, n, k)
	want := refSample(&ref, n, k)
	if !slices.Equal(dst[base:], want) {
		t.Errorf("AppendSample(n=%d, k=%d) = %v, reference %v", n, k, dst[base:], want)
	}
	if a, b := r.Uint64(), ref.Uint64(); a != b {
		t.Errorf("AppendSample(n=%d, k=%d) left the generator at %#x, reference %#x", n, k, a, b)
	}
	return dst
}

// checkIdentity fails unless the pooled table handed out next is the
// identity: the restore invariant every call must leave behind.
func checkIdentity(t *testing.T) {
	t.Helper()
	tp := positions.Get().(*[]int)
	defer positions.Put(tp)
	for i, v := range *tp {
		if v != i {
			t.Fatalf("pooled position table holds %d at %d", v, i)
		}
	}
}

func TestSampleMatchesReference(t *testing.T) {
	var shapes []sampleShape
	for n := 0; n <= 40; n++ {
		for _, k := range []int{0, 1, n / 2, n - 1, n} {
			if k >= 0 && k <= n {
				shapes = append(shapes, sampleShape{"", n, k})
			}
		}
	}
	shapes = append(shapes, benchShapes...)
	src := NewSource(2024)
	var buf []int
	for _, s := range shapes {
		for h := 0; h < 200; h++ {
			buf = checkAgainstRef(t, src.Stream(s.n, h), buf[:0], s.n, s.k)
		}
		if t.Failed() {
			t.Fatalf("diverged at n=%d, k=%d", s.n, s.k)
		}
	}
	checkIdentity(t)

	// Appending keeps dst's prefix.
	buf = checkAgainstRef(t, New(5), append(buf[:0], -7, -8), 50, 20)
	if buf[0] != -7 || buf[1] != -8 || len(buf) != 22 {
		t.Fatalf("AppendSample clobbered its prefix: %v", buf[:2])
	}
}

// FuzzSampleWithoutReplacement decodes plan into a sequence of draws of
// mixed sizes, 3 bytes each (12-bit n, k as a fraction of n), run
// through the one package pool: a draw that leaves the table dirty
// makes a later, differently sized draw diverge from the reference.
func FuzzSampleWithoutReplacement(f *testing.F) {
	f.Add(uint64(1), []byte{200, 0, 255, 16, 9, 3, 255, 15, 128, 7, 0, 255})
	f.Add(uint64(7), []byte{1, 0, 255, 0, 16, 9, 96, 9, 40})
	f.Fuzz(func(t *testing.T, seed uint64, plan []byte) {
		r := New(seed)
		var buf []int
		for ; len(plan) >= 3; plan = plan[3:] {
			n := int(plan[0]) | int(plan[1]&0x0f)<<8
			k := int(plan[2]) * n / 255
			buf = checkAgainstRef(t, r, buf[:0], n, k)
			if t.Failed() {
				t.FailNow()
			}
			checkIdentity(t)
		}
	})
}

// TestSampleConcurrentDrawers runs eight goroutines drawing different
// sizes at once: each must get a table of its own from the pool (run
// under -race).
func TestSampleConcurrentDrawers(t *testing.T) {
	shapes := []sampleShape{
		{"", 24000, 2400}, {"", 8000, 800}, {"", 4000, 400}, {"", 600, 60},
		{"", 100, 100}, {"", 5000, 1}, {"", 37, 18}, {"", 12000, 11999},
	}
	var wg sync.WaitGroup
	for g, s := range shapes {
		wg.Add(1)
		go func(g int, s sampleShape) {
			defer wg.Done()
			src := NewSource(uint64(g))
			var buf []int
			for h := 0; h < 30; h++ {
				r := src.Stream(1, h)
				ref := *r
				buf = r.AppendSample(buf[:0], s.n, s.k)
				if want := refSample(&ref, s.n, s.k); !slices.Equal(buf, want) {
					t.Errorf("drawer %d (n=%d, k=%d) diverged from the reference at stream %d", g, s.n, s.k, h)
					return
				}
			}
		}(g, s)
	}
	wg.Wait()
}

func TestAppendSampleAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	for _, s := range benchShapes {
		r := New(3)
		buf := make([]int, 0, s.k)
		if n := testing.AllocsPerRun(50, func() { buf = r.AppendSample(buf[:0], s.n, s.k) }); n != 0 {
			t.Fatalf("AppendSample(%d, %d) into a kept buffer allocated %g times per call", s.n, s.k, n)
		}
	}
}

// BenchmarkSampleWithoutReplacement times the call the traced pass of
// the repository benchmark replays as rng.sample_ns_per_draw, at each
// dataset's shape.
func BenchmarkSampleWithoutReplacement(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			r := New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.SampleWithoutReplacement(s.n, s.k)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.k), "ns/draw")
		})
	}
}
