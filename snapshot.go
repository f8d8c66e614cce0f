package dssddi

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"dssddi/internal/dataset"
	"dssddi/internal/ddi"
	"dssddi/internal/graph"
	"dssddi/internal/md"
	"dssddi/internal/snapshot"
)

// This file defines snapshot format version 1: the complete field
// layout of a saved System. The low-level encoding (endianness, length
// prefixes, checksum) lives in internal/snapshot; every structural
// change here must bump snapshot.Version and keep a reader for the old
// layout.
//
// Layout, in stream order:
//
//	magic, format version        (internal/snapshot)
//	header: system Config, cohort shape, dataset SHA-256
//	dataset: X, Y, drug features, splits, names, DDI edge list
//	DDI module: config + cached relation embeddings
//	MD module: config, encoder/decoder weights, relation embeddings,
//	           cached drug representations, treatment model
//	           (internal/md/codec.go: md.Model.Encode and md.Decode)
//	CRC32 footer                 (internal/snapshot)

// SnapshotInfo is the cheap-to-read metadata at the head of a
// snapshot: enough to identify a model (and refuse a mismatched one)
// without decoding the weights. DatasetSHA256 is the hex digest of the
// canonical dataset encoding — two snapshots trained on the same data
// carry the same digest regardless of training settings.
type SnapshotInfo struct {
	Version  int    `json:"version"`
	Backbone string `json:"backbone"`
	Hidden   int    `json:"hidden"`
	Seed     int64  `json:"seed"`
	Patients int    `json:"patients"`
	Drugs    int    `json:"drugs"`

	DDIEpochs int     `json:"ddi_epochs"`
	MDEpochs  int     `json:"md_epochs"`
	Delta     float64 `json:"delta"`
	Alpha     float64 `json:"alpha"`

	DatasetSHA256 string `json:"dataset_sha256"`
}

// Save writes the trained system as a versioned, checksummed binary
// snapshot. The stream is deterministic — saving the same system twice
// produces identical bytes — and Load restores a system whose Suggest,
// Scores, Explain and Evaluate output is bitwise identical to this
// one's. Save fails on an untrained system.
func (s *System) Save(w io.Writer) error {
	if err := s.ensureTrained(); err != nil {
		return fmt.Errorf("dssddi: Save: %w", err)
	}

	e := snapshot.NewEncoder(w)
	writeHeader(e, s.snapshotInfo())
	writeDataset(e, s.data.ds)

	// DDI module: the config that produced the embeddings plus the
	// cached embedding matrix itself (the module's only inference
	// output).
	dcfg := s.ddiModel.Config
	e.Int(int(dcfg.Backbone))
	e.Int(dcfg.Hidden)
	e.Int(dcfg.Layers)
	e.Int(dcfg.Epochs)
	e.Float(dcfg.LR)
	e.Float(dcfg.ZeroRatio)
	e.Int64(dcfg.Seed)
	e.Matrix(s.ddiModel.Embeddings())

	s.mdModel.Encode(e)
	if err := e.Finish(); err != nil {
		return fmt.Errorf("dssddi: Save: %w", err)
	}
	return nil
}

// Load restores a system saved with Save. The returned system is
// trained and immutable in the sense that all its read paths (Suggest,
// Scores, Explain, Evaluate, DrugRelationEmbeddings) are safe for
// unbounded concurrent callers; calling Train on it retrains from
// scratch exactly like a fresh system. Load verifies the stream
// checksum and the dataset identity digest before returning.
func Load(r io.Reader) (*System, error) {
	d, err := snapshot.NewDecoder(r)
	if err != nil {
		return nil, fmt.Errorf("dssddi: Load: %w", err)
	}
	info := readHeader(d)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("dssddi: Load: reading header: %w", err)
	}

	ds := readDataset(d)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("dssddi: Load: reading dataset: %w", err)
	}
	if got := datasetDigest(ds); got != info.DatasetSHA256 {
		return nil, fmt.Errorf("dssddi: Load: dataset digest mismatch (header %s, decoded %s)", info.DatasetSHA256, got)
	}

	dcfg := ddi.Config{
		Backbone:  ddi.Backbone(d.Int()),
		Hidden:    d.Int(),
		Layers:    d.Int(),
		Epochs:    d.Int(),
		LR:        d.Float(),
		ZeroRatio: d.Float(),
		Seed:      d.Int64(),
	}
	emb := d.Matrix()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("dssddi: Load: reading DDI module: %w", err)
	}
	ddiModel, err := ddi.FromEmbeddings(dcfg, ds.NumDrugs(), emb)
	if err != nil {
		return nil, fmt.Errorf("dssddi: Load: %w", err)
	}

	// Train builds the MD module over the DDI embeddings, which
	// FromEmbeddings has just checked are Hidden wide.
	mdModel, err := md.Decode(d, ds, dcfg.Hidden)
	if err != nil {
		return nil, fmt.Errorf("dssddi: Load: reading MD module: %w", err)
	}
	if err := d.Verify(); err != nil {
		return nil, fmt.Errorf("dssddi: Load: %w", err)
	}

	cfg := Config{
		Backbone:  info.Backbone,
		DDIEpochs: info.DDIEpochs,
		MDEpochs:  info.MDEpochs,
		Hidden:    info.Hidden,
		Delta:     info.Delta,
		Alpha:     info.Alpha,
		Seed:      info.Seed,
	}
	backbone, err := parseBackbone(cfg.Backbone)
	if err != nil {
		return nil, fmt.Errorf("dssddi: Load: %w", err)
	}
	return &System{
		cfg:      cfg,
		backbone: backbone,
		data:     &Data{ds: ds, names: ds.DrugNames},
		ddiModel: ddiModel,
		mdModel:  mdModel,
		trained:  true,
		digest:   info.DatasetSHA256,
	}, nil
}

// ReadSnapshotInfo reads only the snapshot header — model identity
// without the weights. It does not verify the stream checksum (that
// requires reading the whole file); Load does.
func ReadSnapshotInfo(r io.Reader) (SnapshotInfo, error) {
	d, err := snapshot.NewDecoder(r)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("dssddi: ReadSnapshotInfo: %w", err)
	}
	info := readHeader(d)
	if err := d.Err(); err != nil {
		return SnapshotInfo{}, fmt.Errorf("dssddi: ReadSnapshotInfo: %w", err)
	}
	return info, nil
}

// Data returns the problem instance the system was trained on (nil
// before Train). Loaded systems carry the full instance, so test
// patients, medications and drug names are available to serving code.
func (s *System) Data() *Data { return s.data }

// SnapshotInfo reports the metadata Save would stamp on this system's
// snapshot. It requires a trained system.
func (s *System) SnapshotInfo() (SnapshotInfo, error) {
	if err := s.ensureTrained(); err != nil {
		return SnapshotInfo{}, err
	}
	return s.snapshotInfo(), nil
}

func (s *System) snapshotInfo() SnapshotInfo {
	return SnapshotInfo{
		Version:       snapshot.Version,
		Backbone:      s.cfg.Backbone,
		Hidden:        s.cfg.Hidden,
		Seed:          s.cfg.Seed,
		Patients:      s.data.NumPatients(),
		Drugs:         s.data.NumDrugs(),
		DDIEpochs:     s.cfg.DDIEpochs,
		MDEpochs:      s.cfg.MDEpochs,
		Delta:         s.cfg.Delta,
		Alpha:         s.cfg.Alpha,
		DatasetSHA256: s.digest,
	}
}

func writeHeader(e *snapshot.Encoder, info SnapshotInfo) {
	e.String(info.Backbone)
	e.Int(info.Hidden)
	e.Int64(info.Seed)
	e.Int(info.Patients)
	e.Int(info.Drugs)
	e.Int(info.DDIEpochs)
	e.Int(info.MDEpochs)
	e.Float(info.Delta)
	e.Float(info.Alpha)
	e.String(info.DatasetSHA256)
}

func readHeader(d *snapshot.Decoder) SnapshotInfo {
	return SnapshotInfo{
		Version:       d.Version(),
		Backbone:      d.String(),
		Hidden:        d.Int(),
		Seed:          d.Int64(),
		Patients:      d.Int(),
		Drugs:         d.Int(),
		DDIEpochs:     d.Int(),
		MDEpochs:      d.Int(),
		Delta:         d.Float(),
		Alpha:         d.Float(),
		DatasetSHA256: d.String(),
	}
}

// datasetDigest is the canonical dataset identity: the SHA-256 of the
// deterministic dataset encoding. Train takes it once and Save stamps
// it into the header; Load recomputes it from the decoded dataset, so a
// snapshot whose header and payload disagree is rejected, and then
// keeps the verified header value.
func datasetDigest(ds *dataset.Dataset) string {
	h := sha256.New()
	e := snapshot.NewRawEncoder(h)
	writeDataset(e, ds)
	if e.Flush() != nil {
		// Writing to a hash cannot fail; a sticky error here means a
		// programming bug, surfaced as a digest no header will match.
		return "invalid"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeDataset(e *snapshot.Encoder, ds *dataset.Dataset) {
	e.Matrix(ds.X)
	e.Matrix(ds.Y)
	e.Matrix(ds.DrugFeatures)
	e.Ints(ds.Train)
	e.Ints(ds.Val)
	e.Ints(ds.Test)
	e.Strings(ds.DrugNames)
	e.Int(ds.NumClusters)

	el := ds.DDI.Edges()
	e.Int(ds.DDI.N())
	e.Ints(el.U)
	e.Ints(el.V)
	signs := make([]int, len(el.S))
	for i, s := range el.S {
		signs[i] = int(s)
	}
	e.Ints(signs)
}

func readDataset(d *snapshot.Decoder) *dataset.Dataset {
	ds := &dataset.Dataset{
		X:            d.Matrix(),
		Y:            d.Matrix(),
		DrugFeatures: d.Matrix(),
		Train:        d.Ints(),
		Val:          d.Ints(),
		Test:         d.Ints(),
		DrugNames:    d.Strings(),
		NumClusters:  d.Int(),
	}
	n := d.Int()
	u, v, signs := d.Ints(), d.Ints(), d.Ints()
	if d.Err() != nil {
		return ds
	}
	// Every width below sizes an allocation before the checksum is
	// verified, so each must be bounded by payload already read: a
	// patient's label row carries the drug count, a drug's label column
	// the patient count, and disjoint splits keep the observed rows
	// within the patient rows.
	if ds.X == nil || ds.Y == nil || ds.Y.Rows() == 0 || ds.Y.Cols() == 0 {
		d.Fail(fmt.Errorf("dssddi: corrupt dataset: no patients or no drugs"))
		return ds
	}
	if ds.X.Rows() != ds.Y.Rows() {
		d.Fail(fmt.Errorf("dssddi: corrupt dataset: %d feature rows for %d label rows", ds.X.Rows(), ds.Y.Rows()))
		return ds
	}
	if f := ds.DrugFeatures; f != nil && f.Rows() != ds.Y.Cols() {
		d.Fail(fmt.Errorf("dssddi: corrupt dataset: %d drug feature rows for %d drugs", f.Rows(), ds.Y.Cols()))
		return ds
	}
	seen := make([]bool, ds.X.Rows())
	for _, split := range [][]int{ds.Train, ds.Val, ds.Test} {
		for _, p := range split {
			if p < 0 || p >= len(seen) || seen[p] {
				d.Fail(fmt.Errorf("dssddi: corrupt dataset split: patient %d of %d out of range or listed twice", p, ds.X.Rows()))
				return ds
			}
			seen[p] = true
		}
	}
	// The graph is sized by n, so n must be the drug count.
	if n != ds.Y.Cols() || len(u) != len(v) || len(u) != len(signs) {
		d.Fail(fmt.Errorf("dssddi: corrupt DDI edge list (%d nodes for %d drugs, %d/%d/%d edge columns)", n, ds.Y.Cols(), len(u), len(v), len(signs)))
		return ds
	}
	g := graph.NewSigned(n)
	for i := range u {
		if u[i] < 0 || u[i] >= n || v[i] < 0 || v[i] >= n || u[i] == v[i] {
			d.Fail(fmt.Errorf("dssddi: corrupt DDI edge (%d,%d) on %d nodes", u[i], v[i], n))
			return ds
		}
		g.SetEdge(u[i], v[i], graph.Sign(signs[i]))
	}
	ds.DDI = g
	return ds
}
