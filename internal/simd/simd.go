// Package simd provides the measured data-parallel kernels of the SIMD
// study (§5, Figures 6–9).
//
// Go has no vector intrinsics (DESIGN.md S3), so the "SIMD" variants here
// use the data-parallel techniques portable Go can express: SWAR (two
// 32-bit lanes packed in one 64-bit word), branch-free predication, and
// manual unrolling for instruction- and memory-level parallelism. They
// are the measured counterpart of the AVX-512 lane model in
// internal/microsim; EXPERIMENTS.md reports both, side by side with the
// paper's numbers.
package simd

import (
	"paradigms/internal/hashtable"
)

// SelectBranching is the naive scalar selection: positions of x < bound,
// with a data-dependent branch per element.
func SelectBranching(data []int32, bound int32, out []int32) int {
	k := 0
	for i, v := range data {
		if v < bound {
			out[k] = int32(i)
			k++
		}
	}
	return k
}

// SelectPredicated is the branch-free scalar selection the paper uses as
// its scalar baseline (§2.1: "*res = i; res += cond").
func SelectPredicated(data []int32, bound int32, out []int32) int {
	k := 0
	for i, v := range data {
		out[k] = int32(i)
		if v < bound {
			k++
		}
	}
	return k
}

// SelectSWAR processes two 32-bit lanes per 64-bit word: both lanes are
// compared with one subtraction using a borrow guard, the per-lane sign
// bits become a 2-bit mask, and a tiny mask→positions table emulates the
// AVX-512 compress-store. This is the widest data-parallel selection
// portable Go can express.
func SelectSWAR(data []int32, bound int32, out []int32) int {
	k := 0
	n := len(data) &^ 1
	// Bias lanes by 2^31 so signed order becomes unsigned order; a lane
	// is below the bound iff the 64-bit difference goes negative.
	b := uint64(uint32(bound) ^ 0x80000000)
	const bias = 0x8000000080000000
	for i := 0; i < n; i += 2 {
		w := (uint64(uint32(data[i])) | uint64(uint32(data[i+1]))<<32) ^ bias
		m0 := ((w & 0xffffffff) - b) >> 63
		m1 := ((w >> 32) - b) >> 63
		out[k] = int32(i)
		k += int(m0)
		out[k] = int32(i + 1)
		k += int(m1)
	}
	for i := n; i < len(data); i++ {
		out[k] = int32(i)
		if data[i] < bound {
			k++
		}
	}
	return k
}

// SelectSparsePredicated is the secondary-selection kernel (input comes
// through a selection vector — Fig. 6b).
func SelectSparsePredicated(data []int32, bound int32, sel []int32, out []int32) int {
	k := 0
	for _, s := range sel {
		out[k] = s
		if data[s] < bound {
			k++
		}
	}
	return k
}

// SelectSparseUnrolled is the data-parallel variant of the sparse
// selection: 4-way unrolled gathers to expose memory-level parallelism.
func SelectSparseUnrolled(data []int32, bound int32, sel []int32, out []int32) int {
	k := 0
	n := len(sel) &^ 3
	for i := 0; i < n; i += 4 {
		s0, s1, s2, s3 := sel[i], sel[i+1], sel[i+2], sel[i+3]
		v0, v1, v2, v3 := data[s0], data[s1], data[s2], data[s3]
		out[k] = s0
		if v0 < bound {
			k++
		}
		out[k] = s1
		if v1 < bound {
			k++
		}
		out[k] = s2
		if v2 < bound {
			k++
		}
		out[k] = s3
		if v3 < bound {
			k++
		}
	}
	for i := n; i < len(sel); i++ {
		out[k] = sel[i]
		if data[sel[i]] < bound {
			k++
		}
	}
	return k
}

// HashScalar hashes keys with Murmur2 one at a time.
func HashScalar(keys []uint64, out []uint64) {
	for i, k := range keys {
		out[i] = hashtable.Murmur2(k)
	}
}

// HashUnrolled hashes four keys per iteration, letting independent
// multiply chains overlap — the ILP analogue of vectorized hashing
// (Fig. 8a).
func HashUnrolled(keys []uint64, out []uint64) {
	n := len(keys) &^ 3
	for i := 0; i < n; i += 4 {
		out[i] = hashtable.Murmur2(keys[i])
		out[i+1] = hashtable.Murmur2(keys[i+1])
		out[i+2] = hashtable.Murmur2(keys[i+2])
		out[i+3] = hashtable.Murmur2(keys[i+3])
	}
	for i := n; i < len(keys); i++ {
		out[i] = hashtable.Murmur2(keys[i])
	}
}

// GatherScalar reads table[idx[i]] sequentially.
func GatherScalar(table []uint64, idx []int32, out []uint64) {
	for i, s := range idx {
		out[i] = table[s]
	}
}

// GatherUnrolled issues four independent loads per iteration (Fig. 8b:
// the gain is bounded by the memory pipeline, ~2 loads/cycle).
func GatherUnrolled(table []uint64, idx []int32, out []uint64) {
	n := len(idx) &^ 3
	for i := 0; i < n; i += 4 {
		out[i] = table[idx[i]]
		out[i+1] = table[idx[i+1]]
		out[i+2] = table[idx[i+2]]
		out[i+3] = table[idx[i+3]]
	}
	for i := n; i < len(idx); i++ {
		out[i] = table[idx[i]]
	}
}

// ProbeScalar is the Tectorwise probe primitive: hash, find candidate,
// compare key — one probe at a time (Fig. 8c / Fig. 9).
func ProbeScalar(ht *hashtable.Table, keys []uint64, matches []int32) int {
	nm := 0
	for i, k := range keys {
		h := hashtable.Murmur2(k)
		for ref := ht.Lookup(h); ref != 0; ref = ht.Next(ref) {
			if ht.Hash(ref) == h && ht.Word(ref, 0) == k {
				matches[nm] = int32(i)
				nm++
				break
			}
		}
	}
	return nm
}

// ProbeUnrolled overlaps four independent probes per iteration.
func ProbeUnrolled(ht *hashtable.Table, keys []uint64, matches []int32) int {
	nm := 0
	n := len(keys) &^ 3
	var refs [4]hashtable.Ref
	var hs [4]uint64
	for i := 0; i < n; i += 4 {
		hs[0] = hashtable.Murmur2(keys[i])
		hs[1] = hashtable.Murmur2(keys[i+1])
		hs[2] = hashtable.Murmur2(keys[i+2])
		hs[3] = hashtable.Murmur2(keys[i+3])
		refs[0] = ht.Lookup(hs[0])
		refs[1] = ht.Lookup(hs[1])
		refs[2] = ht.Lookup(hs[2])
		refs[3] = ht.Lookup(hs[3])
		for j := 0; j < 4; j++ {
			k := keys[i+j]
			for ref := refs[j]; ref != 0; ref = ht.Next(ref) {
				if ht.Hash(ref) == hs[j] && ht.Word(ref, 0) == k {
					matches[nm] = int32(i + j)
					nm++
					break
				}
			}
		}
	}
	for i := n; i < len(keys); i++ {
		h := hashtable.Murmur2(keys[i])
		for ref := ht.Lookup(h); ref != 0; ref = ht.Next(ref) {
			if ht.Hash(ref) == h && ht.Word(ref, 0) == keys[i] {
				matches[nm] = int32(i)
				nm++
				break
			}
		}
	}
	return nm
}
