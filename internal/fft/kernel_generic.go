package fft

// Pure-Go butterfly stage kernels: the arithmetic reference every
// architecture kernel must reproduce value-for-value (zero-sign flips
// aside). These are always compiled — the purego build tag and the
// GOOPC_NOASM environment variable select them at dispatch, and the
// equivalence and fuzz tests in equiv_test.go compare the assembly
// kernels against them across every stage size and stride.

// stage24Generic runs the fused size-2 and size-4 stages over x. The
// only twiddles are exactly 1 and w1 = tw[n/4], so the arithmetic is
// that of the plain radix-2 ladder. len(x) must be a multiple of 4.
func stage24Generic(x []complex128, w1 complex128) {
	for s := 0; s+3 < len(x); s += 4 {
		a0, a1, a2, a3 := x[s], x[s+1], x[s+2], x[s+3]
		b0, b1 := a0+a1, a0-a1
		b2, b3 := a2+a3, a2-a3
		t3 := b3 * w1
		x[s], x[s+2] = b0+b2, b0-b2
		x[s+1], x[s+3] = b1+t3, b1-t3
	}
}

// stageGeneric runs one radix-2 butterfly stage of the given size over
// every block of x, reading the stage's twiddles sequentially from wt
// (len(wt) == size/2). The halves are resliced to len(wt) so the
// compiler drops every bounds check, and the loop is unrolled 4-wide:
// butterflies are independent, so batching them changes nothing about
// each one's arithmetic. half is always a multiple of 4 here (the
// smallest stage is size 8), so the scalar tail only guards malformed
// tables.
func stageGeneric(x []complex128, size int, wt []complex128) {
	n := len(x)
	half := size >> 1
	for start := 0; start < n; start += size {
		lo := x[start : start+half : start+half][:len(wt)]
		hi := x[start+half : start+size : start+size][:len(wt)]
		k := 0
		for ; k+3 < len(wt); k += 4 {
			b0 := hi[k] * wt[k]
			b1 := hi[k+1] * wt[k+1]
			b2 := hi[k+2] * wt[k+2]
			b3 := hi[k+3] * wt[k+3]
			a0, a1, a2, a3 := lo[k], lo[k+1], lo[k+2], lo[k+3]
			lo[k] = a0 + b0
			hi[k] = a0 - b0
			lo[k+1] = a1 + b1
			hi[k+1] = a1 - b1
			lo[k+2] = a2 + b2
			hi[k+2] = a2 - b2
			lo[k+3] = a3 + b3
			hi[k+3] = a3 - b3
		}
		for ; k < len(wt); k++ {
			w := wt[k]
			b := hi[k] * w
			a := lo[k]
			lo[k] = a + b
			hi[k] = a - b
		}
	}
}

// stageScaleGeneric is stageGeneric with a uniform scaling folded into
// the butterfly outputs — the final stage of an inverse transform
// applies its 1/N here, saving the separate O(N) sweep. Scaling at the
// store computes exactly the expression the separate pass would
// (component-wise multiply of the already-rounded sum), so the result
// is bit-identical; for the power-of-two scales the inverse uses it is
// exact outright.
func stageScaleGeneric(x []complex128, size int, wt []complex128, scale float64) {
	n := len(x)
	half := size >> 1
	for start := 0; start < n; start += size {
		lo := x[start : start+half : start+half][:len(wt)]
		hi := x[start+half : start+size : start+size][:len(wt)]
		for k := range wt {
			b := hi[k] * wt[k]
			a := lo[k]
			s := a + b
			d := a - b
			lo[k] = complex(real(s)*scale, imag(s)*scale)
			hi[k] = complex(real(d)*scale, imag(d)*scale)
		}
	}
}
