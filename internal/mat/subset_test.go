package mat

import (
	"testing"
)

func TestGatherScatterRoundTrip(t *testing.T) {
	src := []float64{10, 11, 12, 13, 14, 15}
	idx := []int{1, 3, 4}
	got := make([]float64, 3)
	Gather(got, src, idx)
	for i, want := range []float64{11, 13, 14} {
		if got[i] != want {
			t.Fatalf("Gather[%d] = %g, want %g", i, got[i], want)
		}
	}
	dst := make([]float64, 6)
	Scatter(dst, got, idx)
	for i, v := range dst {
		switch i {
		case 1, 3, 4:
			if v != src[i] {
				t.Fatalf("Scatter[%d] = %g, want %g", i, v, src[i])
			}
		default:
			if v != 0 {
				t.Fatalf("Scatter touched untargeted index %d", i)
			}
		}
	}
}

func TestGatherScatterLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"gather":  func() { Gather(make([]float64, 2), make([]float64, 4), []int{0}) },
		"scatter": func() { Scatter(make([]float64, 4), make([]float64, 2), []int{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s length mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}
