package mat

import (
	"math"
	"math/rand"
)

// RandUniform returns a rows x cols matrix with entries drawn uniformly
// from [-scale, scale).
func RandUniform(rng *rand.Rand, rows, cols int, scale float64) *Dense {
	m := New(rows, cols)
	for i := range m.data {
		u := float64(rng.Float64()) // rounded: no FMA with rand's own scaling
		m.data[i] = (float64(u*2) - 1) * scale
	}
	return m
}

// RandNormal returns a rows x cols matrix with N(0, std²) entries.
func RandNormal(rng *rand.Rand, rows, cols int, std float64) *Dense {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = rng.NormFloat64() * std
	}
	return m
}

// GlorotUniform returns a rows x cols matrix initialised with the
// Glorot/Xavier uniform scheme: U(-√(6/(fanIn+fanOut)), +√(6/(fanIn+fanOut))).
func GlorotUniform(rng *rand.Rand, rows, cols int) *Dense {
	limit := math.Sqrt(6.0 / float64(rows+cols))
	return RandUniform(rng, rows, cols, limit)
}

// OneHot returns an n x n identity matrix, used as one-hot ID features.
func OneHot(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}
