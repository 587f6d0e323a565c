package main

import (
	"testing"
	"time"
)

// Slices must cover every sample: a dropped tail would leave the last
// operations of a run out of its figures.
func TestPartsCoverAll(t *testing.T) {
	for _, c := range []struct{ n, k int }{{130, 6}, {300, 15}, {20, 1}, {7, 7}} {
		b := parts(c.n, c.k)
		if len(b) != c.k || b[0][0] != 0 || b[c.k-1][1] != c.n {
			t.Fatalf("parts(%d, %d) = %v", c.n, c.k, b)
		}
		for i := 1; i < len(b); i++ {
			if b[i][0] != b[i-1][1] || b[i][1]-b[i][0] < c.n/c.k {
				t.Fatalf("parts(%d, %d) = %v", c.n, c.k, b)
			}
		}
	}
}

func TestSliceQuantileUsesTail(t *testing.T) {
	var s series
	start := time.Now()
	// 39 samples make one slice of 39, whose p90 (the 35th) is the first
	// of the five slow ones at the end; they must not be cut off as a
	// short tail after a first slice of 20.
	for i := 0; i < 39; i++ {
		d := time.Millisecond
		if i >= 34 {
			d = 9 * time.Millisecond
		}
		s.add(start.Add(time.Duration(i)*time.Second), d, 1)
	}
	if got := s.sliceQuantile(0.9); got != 9*time.Millisecond {
		t.Errorf("p90 = %v, want 9ms from the last five samples", got)
	}
}
