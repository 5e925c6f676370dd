package optics

import "sync"

// floatPools recycles per-size intensity accumulators so the model-OPC
// iteration loop stops allocating a fresh buffer per SOCS kernel per
// iteration. Slices handed out are zeroed.
var floatPools sync.Map // int -> *sync.Pool

func getFloats(n int) []float64 {
	p, ok := floatPools.Load(n)
	if !ok {
		p, _ = floatPools.LoadOrStore(n, &sync.Pool{New: func() any {
			return make([]float64, n)
		}})
	}
	v := p.(*sync.Pool).Get().([]float64)
	for i := range v {
		v[i] = 0
	}
	return v
}

func putFloats(v []float64) {
	if p, ok := floatPools.Load(len(v)); ok {
		p.(*sync.Pool).Put(v) //nolint:staticcheck // slice header boxing is fine here
	}
}
