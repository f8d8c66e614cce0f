package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"dssddi/internal/regproto"
	"dssddi/internal/snapshot"
	"dssddi/internal/wal"
)

// The durable registry layers a write-ahead log under the in-memory
// patient registry: every accepted mutation (put / patch / delete) is
// appended to the WAL before the request is acknowledged, so a
// crashed backend rebuilds its registered patients on restart instead
// of silently losing them (the fleet pins registered ids to one owner
// backend — its RAM used to be the only copy). The log is compacted
// through periodic checkpoints: the full registry state is written to
// a sibling checkpoint file (internal/snapshot's checksummed codec)
// and the log truncated, so recovery replays a bounded suffix.
//
// Consistency discipline: a mutation appends its WAL record inside
// the same shard critical section that installs it, so log order
// matches install order per patient; a registry-wide RWMutex (gate)
// lets mutations proceed concurrently (RLock) while a checkpoint
// takes the write side, making the checkpoint + log truncation
// atomic with respect to writers. Records are absolute (full profile
// per set, not deltas), so replaying a checkpoint-covered suffix is
// idempotent. The WAL and the checkpoint both carry regproto.Record;
// testdata/registry-v2.wal and registry-v2.ckpt pin both formats.

// errDurability marks a mutation that failed at the WAL layer: the
// write was NOT acknowledged durably and must surface as a 500, not a
// 400 — the client's profile was fine, the disk was not.
var errDurability = errors.New("serve: durable registry write failed")

// WAL record operations.
const (
	walOpSet    = 1 // full profile for one id (put and patch both log this)
	walOpDelete = 2
)

// checkpointTag / checkpointVersion head the checkpoint file inside
// the snapshot container. Version 2 added the per-record replication
// version and tombstone flag.
const (
	checkpointTag     = "registry-checkpoint"
	checkpointVersion = 2
)

// durableStore owns the WAL and checkpoint machinery for one
// registry.
type durableStore struct {
	log      *wal.Log
	ckptPath string
	every    int64 // mutations between automatic checkpoints

	// gate serializes checkpoints against mutations: every mutation
	// holds the read side across its WAL append + install, a
	// checkpoint holds the write side across scan + file write + log
	// truncation. Reads (get / suggest) never touch it.
	gate sync.RWMutex

	checkpoints  atomic.Int64
	ckptFailures atomic.Int64

	recovered int // patients rebuilt at boot (checkpoint + WAL)

	closeOnce sync.Once
	closeErr  error
}

// openDurableStore loads the checkpoint (if any) into r, replays the
// WAL on top of it and returns the store. A corrupt WAL interior or
// checkpoint refuses to open: serving guessed clinical state is worse
// than refusing to start.
func openDurableStore(cfg Config, r *patientRegistry) (*durableStore, error) {
	pol, err := wal.ParseSyncPolicy(cfg.WALSync)
	if err != nil {
		return nil, err
	}
	ckptPath := cfg.WALPath + ".ckpt"
	if err := loadCheckpoint(ckptPath, r.restore); err != nil {
		return nil, err
	}
	log, err := wal.Open(cfg.WALPath, wal.Options{Sync: pol, Interval: cfg.WALSyncInterval}, func(version uint64, payload []byte) error {
		rec, err := decodeRecord(version, payload)
		if err == nil {
			r.restore(rec)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	st := &durableStore{
		log:       log,
		ckptPath:  ckptPath,
		every:     int64(cfg.CheckpointEvery),
		recovered: r.len(),
	}
	return st, nil
}

// append logs one record stamped with its replication version; called
// by the registry's write path under the owning shard's lock, so the
// log order matches the install order.
func (st *durableStore) append(rec regproto.Record) error {
	if err := st.log.Append(rec.Version, encodeRecord(rec)); err != nil {
		return fmt.Errorf("%w: %v", errDurability, err)
	}
	return nil
}

// maybeCheckpoint compacts the log once it holds enough records, the
// ones replayed at boot included (otherwise a workload of short-lived
// restarts never checkpoints). Called after a mutation has released
// its locks. A failed checkpoint is counted and logged but never fails
// the request — the mutations themselves are already durable in the
// WAL.
func (st *durableStore) maybeCheckpoint(r *patientRegistry) {
	if st.every <= 0 || st.log.Records() < st.every {
		return
	}
	if err := st.checkpoint(r, false); err != nil {
		st.ckptFailures.Add(1)
		fmt.Fprintf(os.Stderr, "serve: registry checkpoint failed (mutations remain in the WAL): %v\n", err)
	}
}

// checkpoint writes the full registry state to the checkpoint file
// (atomically, via rename) and truncates the WAL. force skips the
// threshold re-check used to collapse racing triggers.
func (st *durableStore) checkpoint(r *patientRegistry, force bool) error {
	st.gate.Lock()
	defer st.gate.Unlock()
	if !force && st.log.Records() < st.every {
		return nil // a racing mutation already checkpointed
	}
	if err := writeCheckpoint(st.ckptPath, r.records(regproto.SyncRequest{})); err != nil {
		return err
	}
	if err := st.log.Reset(); err != nil {
		return err
	}
	st.checkpoints.Add(1)
	return nil
}

// shutdown writes a final checkpoint and fsync-closes the WAL — the
// graceful half of the crash-recovery contract. Idempotent.
func (st *durableStore) shutdown(r *patientRegistry) error {
	st.closeOnce.Do(func() {
		err := st.checkpoint(r, true)
		if cerr := st.log.Close(); err == nil {
			err = cerr
		}
		st.closeErr = err
	})
	return st.closeErr
}

// --- record codec -----------------------------------------------------
//
// One WAL record payload (framing, checksumming and the record's
// version live in internal/wal):
//
//	op      byte (walOpSet | walOpDelete)
//	id      uvarint length + bytes
//	set only:
//	  regimen   flag byte (0 = nil) + uvarint count + varint each
//	  features  flag byte (0 = nil) + uvarint count + 8-byte LE IEEE-754 each
//
// Profiles are absolute, never deltas, so replay is idempotent and a
// record re-applied over a checkpoint that already contains it is
// harmless.

func encodeRecord(rec regproto.Record) []byte {
	op := byte(walOpSet)
	if rec.Deleted {
		op = walOpDelete
	}
	buf := make([]byte, 0, 1+1+len(rec.ID)+2+len(rec.Regimen)*2+2+len(rec.Features)*8+binary.MaxVarintLen64)
	buf = append(buf, op)
	buf = binary.AppendUvarint(buf, uint64(len(rec.ID)))
	buf = append(buf, rec.ID...)
	if rec.Deleted {
		return buf
	}
	buf = appendIntSlice(buf, rec.Regimen)
	return appendFloatSlice(buf, rec.Features)
}

func appendIntSlice(buf []byte, v []int) []byte {
	if v == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for _, x := range v {
		buf = binary.AppendVarint(buf, int64(x))
	}
	return buf
}

func appendFloatSlice(buf []byte, v []float64) []byte {
	if v == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

// decodeRecord parses one WAL payload; the version rides in the WAL
// frame. Deletes decode as tombstones, so a recovered replica still
// refuses stale resurrecting writes.
func decodeRecord(version uint64, payload []byte) (regproto.Record, error) {
	r := recordReader{buf: payload}
	op := r.byte()
	rec := regproto.Record{ID: r.string(), Version: version}
	switch op {
	case walOpSet:
		rec.Regimen = r.intSlice()
		rec.Features = r.floatSlice()
		if r.err != nil {
			return rec, fmt.Errorf("malformed set record: %w", r.err)
		}
	case walOpDelete:
		rec.Deleted = true
		if r.err != nil {
			return rec, fmt.Errorf("malformed delete record: %w", r.err)
		}
	default:
		return rec, fmt.Errorf("unknown record op %d", op)
	}
	if len(r.buf) != r.pos {
		return rec, fmt.Errorf("record has %d trailing bytes", len(r.buf)-r.pos)
	}
	return rec, nil
}

// recordReader is a tiny sticky-error cursor over one record payload.
type recordReader struct {
	buf []byte
	pos int
	err error
}

func (r *recordReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("truncated %s at byte %d", what, r.pos)
	}
}

func (r *recordReader) byte() byte {
	if r.err != nil || r.pos >= len(r.buf) {
		r.fail("byte")
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *recordReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.pos += n
	return v
}

func (r *recordReader) string() string {
	n := r.uvarint("id length")
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail("id")
		return ""
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

func (r *recordReader) intSlice() []int {
	if r.byte() == 0 || r.err != nil {
		return nil
	}
	n := r.uvarint("int count")
	if r.err != nil || n > uint64(len(r.buf)-r.pos) {
		r.fail("ints")
		return nil
	}
	out := make([]int, n)
	for i := range out {
		if r.err != nil {
			return nil
		}
		v, w := binary.Varint(r.buf[r.pos:])
		if w <= 0 {
			r.fail("int")
			return nil
		}
		r.pos += w
		out[i] = int(v)
	}
	return out
}

func (r *recordReader) floatSlice() []float64 {
	if r.byte() == 0 || r.err != nil {
		return nil
	}
	n := r.uvarint("float count")
	// Compare the count, not the byte length: n*8 wraps for n >= 2^61.
	if r.err != nil || n > uint64(len(r.buf)-r.pos)/8 {
		r.fail("floats")
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
		r.pos += 8
	}
	return out
}

// --- checkpoint file --------------------------------------------------

// writeCheckpoint atomically replaces the checkpoint file: encode into
// a temp sibling, fsync, rename, fsync the directory.
func writeCheckpoint(path string, recs []regproto.Record) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	e := snapshot.NewEncoder(f)
	e.String(checkpointTag)
	e.Int(checkpointVersion)
	e.Int(len(recs))
	for _, rec := range recs {
		e.String(rec.ID)
		e.Int64(int64(rec.Version))
		e.Bool(rec.Deleted)
		e.Bool(rec.Regimen != nil)
		e.Ints(rec.Regimen)
		e.Bool(rec.Features != nil)
		e.Floats(rec.Features)
	}
	if err := e.Finish(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// loadCheckpoint hands each record of a checkpoint file to restore; a
// missing file is a fresh start, a damaged one refuses to load (the
// snapshot codec's CRC footer catches torn or flipped bytes).
func loadCheckpoint(path string, restore func(regproto.Record)) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	d, err := snapshot.NewDecoder(f)
	if err != nil {
		return fmt.Errorf("serve: checkpoint %s: %w", path, err)
	}
	if tag := d.String(); tag != checkpointTag && d.Err() == nil {
		return fmt.Errorf("serve: checkpoint %s: unexpected tag %q", path, tag)
	}
	if v := d.Int(); v != checkpointVersion && d.Err() == nil {
		return fmt.Errorf("serve: checkpoint %s: unsupported version %d", path, v)
	}
	n := d.Int()
	// The decoded feature vectors are retained by the registry, so they
	// come from a shared arena: one block allocation serves many
	// entries instead of one fresh slice per Floats call.
	var arena snapshot.FloatArena
	for i := 0; i < n && d.Err() == nil; i++ {
		rec := regproto.Record{ID: d.String(), Version: uint64(d.Int64()), Deleted: d.Bool()}
		hasRegimen := d.Bool()
		rec.Regimen = d.Ints()
		hasFeatures := d.Bool()
		rec.Features = d.FloatsArena(&arena)
		if !hasRegimen {
			rec.Regimen = nil
		}
		if !hasFeatures {
			rec.Features = nil
		}
		restore(rec)
	}
	if err := d.Verify(); err != nil {
		return fmt.Errorf("serve: checkpoint %s: %w", path, err)
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
