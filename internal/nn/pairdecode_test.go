package nn

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"

	"dssddi/internal/mat"
)

// TestPairDecoderMatchesBatchedForward checks the fused pair decode
// against the reference gather→Hadamard→concat→Forward pipeline, bit
// for bit, at several worker counts, across activations and at
// interaction widths d on and off the quad grid (d % 4 == 3 puts the
// treatment coefficient in the last quad).
func TestPairDecoderMatchesBatchedForward(t *testing.T) {
	for _, workers := range []int{1, 4} {
		mat.SetWorkers(workers)
		for _, act := range []Activation{ActLeakyReLU, ActReLU, ActTanh, ActSigmoid} {
			for _, d := range []int{23, 24, 25, 26} {
				testPairDecoderForward(t, workers, act, d)
			}
		}
	}
	mat.SetWorkers(0)
}

func testPairDecoderForward(t *testing.T, workers int, act Activation, d int) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	const h, pairs = 16, 37
	var ps Params
	mlp := NewMLP(rng, &ps, []int{d + 1, h, 1}, act)
	pd, ok := NewPairDecoder(mlp)
	if !ok {
		t.Fatal("decoder-shaped MLP rejected")
	}
	if gd, gh := pd.Dims(); gd != d || gh != h {
		t.Fatalf("Dims = (%d, %d), want (%d, %d)", gd, gh, d, h)
	}

	ha := mat.RandNormal(rng, 9, d, 1)
	hb := mat.RandNormal(rng, 11, d, 1)
	aIdx := make([]int, pairs)
	bIdx := make([]int, pairs)
	tcol := mat.New(pairs, 1)
	for i := 0; i < pairs; i++ {
		aIdx[i] = rng.Intn(ha.Rows())
		bIdx[i] = rng.Intn(hb.Rows())
		tcol.Set(i, 0, float64(rng.Intn(2)))
	}
	inter := mat.Hadamard(ha.GatherRows(aIdx), hb.GatherRows(bIdx))
	want := mlp.Forward(mat.ConcatCols(inter, tcol))

	hidBuf := make([]float64, h)
	for i := 0; i < pairs; i++ {
		got := pd.Logit(ha.Row(aIdx[i]), hb.Row(bIdx[i]), tcol.At(i, 0), hidBuf)
		if math.Float64bits(got) != math.Float64bits(want.At(i, 0)) {
			t.Fatalf("workers=%d act=%v d=%d pair %d: fused %v != batched %v", workers, act, d, i, got, want.At(i, 0))
		}
	}

	// The block decode: every block size up to hb's rows, each
	// pair bit-equal to its per-pair Logit.
	hids := blockScratch[float64](hb.Rows(), h)
	for nb := 1; nb <= hb.Rows(); nb++ {
		a := ha.Row(nb % ha.Rows())
		bs := make([][]float64, nb)
		ts := make([]float64, nb)
		for i := range bs {
			bs[i], ts[i] = hb.Row(i), float64(i%2)
		}
		got := make([]float64, nb)
		pd.LogitsInto(got, a, bs, ts, hids, make([]float64, mat.PairCoefLen(d)))
		for i, g := range got {
			if w := pd.Logit(a, bs[i], ts[i], hidBuf); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("workers=%d act=%v d=%d block %d pair %d: LogitsInto %v != Logit %v", workers, act, d, nb, i, g, w)
			}
		}
	}
}

// blockScratch returns n scratch rows of width w.
func blockScratch[T float32 | float64](n, w int) [][]T {
	rows := make([][]T, n)
	for i := range rows {
		rows[i] = make([]T, w)
	}
	return rows
}

// TestPairDecodersScalarPath reruns the decoder tests with the vector
// kernels off, and capped at AVX2, so the block decode is proven
// bit-equal to the per-pair one on the scalar path and through the
// AVX2 dispatch too (on an AVX-512 host nothing else runs the latter).
// DSSDDI_SIMD is read once at start-up, so each rerun takes a fresh
// process.
func TestPairDecodersScalarPath(t *testing.T) {
	if mat.SIMD() == "none" {
		t.Skip("vector kernels already off")
	}
	for _, level := range []string{"off", "avx2"} {
		cmd := exec.Command(os.Args[0], "-test.v", "-test.run=^TestPairDecoder(MatchesBatchedForward|32TracksOracle)$")
		cmd.Env = append(os.Environ(), "DSSDDI_SIMD="+level)
		out, err := cmd.CombinedOutput()
		if err != nil || strings.Count(string(out), "--- PASS") != 2 {
			t.Fatalf("DSSDDI_SIMD=%s rerun: %v\n%s", level, err, out)
		}
	}
}

// TestPairDecoderRejectsUnsupportedShapes pins the fallback contract.
func TestPairDecoderRejectsUnsupportedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var ps Params
	three := NewMLP(rng, &ps, []int{8, 8, 8, 1}, ActReLU)
	if _, ok := NewPairDecoder(three); ok {
		t.Fatal("3-layer MLP must be rejected")
	}
	wide := NewMLP(rng, &ps, []int{8, 8, 2}, ActReLU)
	if _, ok := NewPairDecoder(wide); ok {
		t.Fatal("non-scalar output must be rejected")
	}
	if _, ok := NewPairDecoder(nil); ok {
		t.Fatal("nil MLP must be rejected")
	}
}

// TestForwardRowMatchesForward checks the row-level MLP forward against
// the batched kernels, bit for bit, including an odd layer count.
func TestForwardRowMatchesForward(t *testing.T) {
	for _, sizes := range [][]int{{7, 5, 3}, {9, 16, 16, 4}, {6, 2}} {
		rng := rand.New(rand.NewSource(8))
		var ps Params
		mlp := NewMLP(rng, &ps, sizes, ActLeakyReLU)
		mlp.OutAct = ActLeakyReLU
		x := mat.RandNormal(rng, 13, sizes[0], 1)
		want := mlp.Forward(x)

		w := mlp.MaxWidth()
		dst := make([]float64, mlp.OutDim())
		buf1 := make([]float64, w)
		buf2 := make([]float64, w)
		for i := 0; i < x.Rows(); i++ {
			mlp.ForwardRow(dst, x.Row(i), buf1, buf2)
			for j, v := range dst {
				if math.Float64bits(v) != math.Float64bits(want.At(i, j)) {
					t.Fatalf("sizes %v row %d col %d: row forward %v != batched %v", sizes, i, j, v, want.At(i, j))
				}
			}
		}
		if mlp.InDim() != sizes[0] {
			t.Fatalf("InDim = %d, want %d", mlp.InDim(), sizes[0])
		}
	}
}
