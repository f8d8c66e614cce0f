package dssddi

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"

	"dssddi/internal/dataset"
	"dssddi/internal/ddi"
	"dssddi/internal/graph"
	"dssddi/internal/mat"
	"dssddi/internal/snapshot"
)

// FuzzLoad feeds arbitrary bytes to Load, seeded with the committed v1
// snapshot. Load must never panic, and a stream it accepts must save
// again to a prefix of itself: the format has exactly one encoding of
// each system, so an accepted stream is Save's own. Bytes after the
// checksum footer are not part of the stream.
func FuzzLoad(f *testing.F) {
	golden, err := os.ReadFile("testdata/golden-v1.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Fuzz(func(t *testing.T, stream []byte) {
		sys, err := Load(bytes.NewReader(stream))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := sys.Save(&buf); err != nil {
			t.Fatalf("an accepted %d-byte stream does not save again: %v", len(stream), err)
		}
		if !bytes.HasPrefix(stream, buf.Bytes()) {
			t.Fatalf("an accepted %d-byte stream saves to %d different bytes", len(stream), buf.Len())
		}
	})
}

// TestLoadRejectsDDINodeCount pins the first FuzzLoad finding: the
// dataset's DDI graph was sized by its decoded node count before the
// checksum was verified, so a corrupt count of 1<<62 made Load panic
// (makeslice: len out of range) instead of failing. The node count
// must equal the dataset's drug count.
func TestLoadRejectsDDINodeCount(t *testing.T) {
	for _, n := range []int{1 << 62, 3, 1, 0, -1} {
		var buf bytes.Buffer
		e := snapshot.NewEncoder(&buf)
		writeHeader(e, SnapshotInfo{Backbone: "SGCN"})
		e.Matrix(mat.New(1, 2)) // X
		e.Matrix(mat.New(1, 2)) // Y: two drugs
		e.Matrix(nil)           // drug features
		e.Ints([]int{0})        // train
		e.Ints(nil)             // val
		e.Ints(nil)             // test
		e.Strings([]string{"a", "b"})
		e.Int(1) // clusters
		e.Int(n) // DDI nodes
		e.Ints(nil)
		e.Ints(nil)
		e.Ints(nil)
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if err == nil || !strings.Contains(err.Error(), "DDI") {
			t.Fatalf("DDI node count %d on 2 drugs: Load returned %v, want a DDI edge list error", n, err)
		}
	}
}

// TestLoadRejectsSplitIndex pins a dataset split naming a patient the
// dataset does not have. The checksum and the dataset digest cover the
// split, so a re-stamped file passed both, and Load panicked building
// the serving model (mat: row out of range) instead of failing.
func TestLoadRejectsSplitIndex(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden-v1.snap")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1 << 40, -1} {
		sys, err := Load(bytes.NewReader(golden))
		if err != nil {
			t.Fatal(err)
		}
		sys.data.ds.Train[0] = p
		sys.digest = datasetDigest(sys.data.ds)
		var buf bytes.Buffer
		if err := sys.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "split") {
			t.Fatalf("train patient %d: Load returned %v, want a dataset split error", p, err)
		}
	}
}

// TestLoadRejectsReshapedGolden changes one shape of the golden model,
// re-stamps the dataset digest and saves it, so the file passes both
// the digest and the checksum. Served, such a file panics on a read
// path (a regimen-only SuggestFor, or every Suggest), or lists a
// patient twice; Load must refuse it.
func TestLoadRejectsReshapedGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden-v1.snap")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		change func(s *System)
	}{
		{"drug feature rows", func(s *System) {
			f := s.data.ds.DrugFeatures
			s.data.ds.DrugFeatures = mat.NewFrom(80, f.Cols(), f.Data()[:80*f.Cols()])
		}},
		{"drug feature width", func(s *System) { s.data.ds.DrugFeatures = mat.New(s.data.NumDrugs(), 3) }},
		{"centroids one column short", func(s *System) {
			c := s.mdModel.Treatment.Centroids
			s.mdModel.Treatment.Centroids = mat.New(c.Rows(), c.Cols()-1)
		}},
		{"train patient listed twice", func(s *System) { s.data.ds.Train[1] = s.data.ds.Train[0] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := Load(bytes.NewReader(golden))
			if err != nil {
				t.Fatal(err)
			}
			tc.change(sys)
			sys.digest = datasetDigest(sys.data.ds)
			var buf bytes.Buffer
			if err := sys.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(&buf); err == nil {
				t.Fatal("the reshaped golden model loads")
			}
		})
	}
}

// TestLoadAllocationBoundedByStream: a stream that declares a wide
// model, with a valid dataset digest and DDI embedding, and ends after
// the MD config costs Load no more memory than the stream carries. The
// MD layers of a 2048-wide model would take 64 MB, and the one-hot
// drug features of 4096 drugs 128 MB, from streams of 17 KB and 98 KB.
func TestLoadAllocationBoundedByStream(t *testing.T) {
	for _, tc := range []struct {
		name          string
		drugs, hidden int
	}{
		{"2048-wide model", 1, 2048},
		{"4096 drugs without features", 4096, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := &dataset.Dataset{
				X: mat.New(1, 1), Y: mat.New(1, tc.drugs), Train: []int{0},
				DrugNames: make([]string, tc.drugs), NumClusters: 1, DDI: graph.NewSigned(tc.drugs),
			}
			var buf bytes.Buffer
			e := snapshot.NewEncoder(&buf)
			writeHeader(e, SnapshotInfo{Backbone: "SGCN", Hidden: tc.hidden, DatasetSHA256: datasetDigest(ds)})
			writeDataset(e, ds)
			e.Int(int(ddi.SGCN)) // DDI config: backbone, hidden, layers, epochs, LR, zero ratio, seed
			e.Int(tc.hidden)
			e.Int(2)
			e.Int(1)
			e.Float(0.01)
			e.Float(0)
			e.Int64(1)
			e.Matrix(mat.New(tc.drugs, tc.hidden))
			e.Int(tc.hidden) // MD config: hidden, propagation depth, epochs, ...
			e.Int(2)
			e.Int(1)
			e.Float(0.01) // LR, δ, weight decay
			e.Float(0.3)
			e.Float(0)
			e.Int64(1)
			e.Float(0.5) // counterfactual quantiles and shortlist
			e.Float(0.5)
			e.Int(10)
			e.Bool(true) // DDI, counterfactuals, validation selection
			e.Bool(true)
			e.Bool(false)
			e.Int(1) // ValEvery; the first layer never arrives
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Load(bytes.NewReader(buf.Bytes()))
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "MD module") {
				t.Fatalf("Load returned %v, want an MD module read error", err)
			}
			if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+8*buf.Len()); got > budget {
				t.Errorf("a %d-byte stream made Load allocate %.1f MiB, want at most %.1f MiB", buf.Len(), float64(got)/(1<<20), float64(budget)/(1<<20))
			}
		})
	}
}
