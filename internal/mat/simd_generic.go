//go:build !amd64

package mat

// Non-amd64 architectures run the portable reference kernels.

const useAVX2 = false

func mulAddRows4(dst, b4 []float64, a0, a1, a2, a3 float64) {
	if len(b4) < 4*len(dst) {
		panic("mat: mulAddRows4 needs 4*len(dst) b values")
	}
	mulAddRows4Go(dst, b4, a0, a1, a2, a3)
}

func mulAddRow1(dst, b []float64, a float64) { mulAddRow1Go(dst, b, a) }

func dot4(a, b []float64) float64 { return dot4Go(a, b) }

func hadamardSlices(dst, a, b []float64) { hadamardIntoGo(dst, a, b) }

func addBiasLeaky(dst, bias []float64, slope float64) { addBiasLeakyGo(dst, bias, slope) }

func pairQuads64(dst [][]float64, x []float64, ys [][]float64, ts []float64, w, _ []float64) {
	clearRows(dst)
	pairQuadsGo(dst, x, ys, ts, w, mulAddRows4)
}

func pairQuads32(dst [][]float32, x []float32, ys [][]float32, ts []float32, w, _ []float32) {
	clearRows(dst)
	pairQuadsGo(dst, x, ys, ts, w, quadFMAGo)
}

func mulAddRow132(dst, b []float32, a float32) { mulAddRow1Go(dst, b, a) }

func dot8x32(a, b []float32) float32 { return dot8Go32(a, b) }

func addBiasLeaky32(dst, bias []float32, slope float32) { addBiasLeakyGo(dst, bias, slope) }

// SIMD names the active vector instruction set.
func SIMD() string { return "none" }

func simdEnabled() bool { return false }

func setSIMD(bool) {}
