package main

import (
	"fmt"
	"math"
)

// The output checks are plain functions of the values they judge, so
// check_test.go can show each one failing when a single value is perturbed.

// dlrmLogitTol is the largest accepted |pipeline logit − Model.Forward
// logit|. The pipeline serves int8 DHE decoders (gated at 0.1 per embedding
// element) and tables materialized from the float DHEs; a prototype
// measured at most 0.0088 on logits of magnitude up to 0.41.
const dlrmLogitTol = 0.05

// int8RowTol is the DHE int8 accuracy gate (dhe.DefaultInt8MaxAbsErr): the
// served rows must stay this close to a float DHE rebuilt from the same
// seed (measured 0.06).
const int8RowTol = 0.1

// checkPredict judges one batch of CTR probabilities against the float
// reference logits of the same batch: every probability lies strictly in
// (0,1) and its logit is within tol of the reference.
func checkPredict(probs, refLogits []float32, tol float64) error {
	if len(probs) != len(refLogits) {
		return fmt.Errorf("%d probabilities for %d reference logits", len(probs), len(refLogits))
	}
	for i, p := range probs {
		if !(p > 0 && p < 1) {
			return fmt.Errorf("probability %d is %v, outside (0,1)", i, p)
		}
		logit := math.Log(float64(p)) - math.Log1p(-float64(p))
		if d := math.Abs(logit - float64(refLogits[i])); !(d <= tol) {
			return fmt.Errorf("logit %d is %.5f, reference %.5f (|diff| %.5f > %.3f)",
				i, logit, refLogits[i], d, tol)
		}
	}
	return nil
}

// maxAbsDiff is the largest elementwise |a − b|; +Inf when the lengths
// differ or a value is not finite.
func maxAbsDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var worst float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// checkNear fails when any element of got differs from want by more than tol.
func checkNear(got, want []float32, tol float64) error {
	if d := maxAbsDiff(got, want); !(d <= tol) {
		return fmt.Errorf("max |diff| %.5f exceeds %.3f", d, tol)
	}
	return nil
}

// hashFloats fingerprints a vector bit-exactly: two vectors hash equal
// only if every element has the same bits (up to 64-bit collisions).
func hashFloats(v []float32) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h ^= uint64(math.Float32bits(x))
		h *= 1099511628211
		h ^= h >> 29
	}
	return h ^ uint64(len(v))
}

// checkRowHashes checks that row r of rows (dim wide) is bit-identical to
// the reference row of ids[r], given as a fingerprint in ref.
func checkRowHashes(rows []float32, dim int, ids []uint64, ref map[uint64]uint64) error {
	if len(rows) != len(ids)*dim {
		return fmt.Errorf("%d values for %d ids of dim %d", len(rows), len(ids), dim)
	}
	for r, id := range ids {
		want, ok := ref[id]
		if !ok {
			return fmt.Errorf("no reference row for id %d", id)
		}
		if hashFloats(rows[r*dim:(r+1)*dim]) != want {
			return fmt.Errorf("row %d (id %d) differs from its reference row", r, id)
		}
	}
	return nil
}

// sizeBook checks that every response's byte size depends only on the
// power-of-two bucket of its id count, capped at the public batch cap.
type sizeBook struct {
	cap     int
	byBound map[int]int // bucket → response bytes
}

func newSizeBook(capRows int) *sizeBook {
	return &sizeBook{cap: capRows, byBound: map[int]int{}}
}

// bucketOf is the smallest power of two ≥ count, capped at the batch cap.
func (b *sizeBook) bucketOf(count int) int {
	bucket := 1
	for bucket < count {
		bucket <<= 1
	}
	if bucket > b.cap {
		bucket = b.cap
	}
	return bucket
}

// observe records one response; it fails when the bucket already had
// responses of another size.
func (b *sizeBook) observe(count, bytes int) error {
	bucket := b.bucketOf(count)
	if seen, ok := b.byBound[bucket]; ok && seen != bytes {
		return fmt.Errorf("a %d-id response took %d bytes; earlier responses in bucket %d took %d",
			count, bytes, bucket, seen)
	}
	b.byBound[bucket] = bytes
	return nil
}

// monotone fails when a larger bucket answered with fewer bytes than a
// smaller one, i.e. when sizes do not follow the buckets.
func (b *sizeBook) monotone() error {
	prev, prevBytes := 0, -1
	for bucket := 1; bucket <= b.cap; bucket <<= 1 {
		bytes, ok := b.byBound[bucket]
		if !ok {
			continue
		}
		if bytes <= prevBytes {
			return fmt.Errorf("bucket %d took %d bytes, not more than bucket %d's %d",
				bucket, bytes, prev, prevBytes)
		}
		prev, prevBytes = bucket, bytes
	}
	return nil
}
