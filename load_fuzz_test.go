package dssddi

import (
	"bytes"
	"os"
	"strings"
	"testing"

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
