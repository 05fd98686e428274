package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"repro/internal/binio"
	"repro/internal/faults"
)

// Durable generational checkpoints. The single-file temp+rename protocol
// of PR 7 survives a crash between writes, but not a torn write, a failed
// fsync, or silent media corruption: one bad byte in the only copy bricks
// recovery. This layer fixes all three failure modes at once:
//
//   - every checkpoint is sealed in a CRC32-checksummed, versioned
//     envelope, so damage is DETECTED rather than decoded into garbage;
//   - the write path is the full durability protocol — temp file → write →
//     fsync(file) → rename → fsync(dir) — through the faults.FS interface,
//     so a storage fault injector can tear it at every step;
//   - the store keeps the last K generations (ckpt.000001, ckpt.000002,
//     …), and restore scans newest→oldest past corrupt or truncated
//     generations, reporting what it skipped, so one bad write NEVER
//     loses more than the updates since the previous good checkpoint.
//
// Envelope layout (fixed-width big-endian, canonical):
//
//	magic   4 bytes "SMCE"
//	version 1 byte
//	gen     u64   generation number (must match the filename)
//	length  u32   payload length
//	payload       a server checkpoint ("SMCP", see checkpoint.go)
//	crc     u32   CRC-32C (Castagnoli) over every preceding byte
const (
	envelopeMagic = "SMCE"
	// EnvelopeVersion is the durable envelope format version.
	EnvelopeVersion = 1
	// envelopeOverhead is the envelope's size beyond the payload.
	envelopeOverhead = 4 + 1 + 8 + 4 + 4
)

// crcTable is the Castagnoli polynomial — hardware-accelerated on amd64
// and arm64, and better burst-error detection than IEEE.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// generationPrefix names checkpoint generations: ckpt.000001, ckpt.000002,
// … (the width grows past a million generations; the scan parses digits,
// not widths).
const generationPrefix = "ckpt."

// DefaultCheckpointKeep is how many checkpoint generations a store
// retains when Config.CheckpointKeep is zero.
const DefaultCheckpointKeep = 3

// generationName renders the file name of generation gen.
func generationName(gen uint64) string {
	return fmt.Sprintf("%s%06d", generationPrefix, gen)
}

// parseGeneration extracts the generation number from a directory entry;
// ok is false for temp files and foreign names.
func parseGeneration(name string) (uint64, bool) {
	digits, found := strings.CutPrefix(name, generationPrefix)
	if !found || digits == "" || faults.IsTemp(name) {
		return 0, false
	}
	gen, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// sealEnvelope wraps payload in a checksummed generation envelope.
func sealEnvelope(gen uint64, payload []byte) []byte {
	dst := make([]byte, 0, envelopeOverhead+len(payload))
	dst = binio.AppendHeader(dst, envelopeMagic, EnvelopeVersion)
	dst = binary.BigEndian.AppendUint64(dst, gen)
	dst = binio.AppendBytes32(dst, payload)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst, crcTable))
}

// openEnvelope validates and unwraps a sealed envelope, returning the
// generation it claims and its payload. Every failure is a typed
// *CheckpointError or *CheckpointVersionError; the CRC check makes
// truncation, torn writes, and bit flips indistinguishable from each other
// but never from success.
func openEnvelope(b []byte) (uint64, []byte, error) {
	r := binio.NewReader(b)
	if v := r.Header(envelopeMagic); r.Err() == nil && v != EnvelopeVersion {
		return 0, nil, &CheckpointVersionError{Got: v}
	}
	gen := r.U64()
	payload := r.Bytes32()
	want := r.U32()
	if e := r.End(); e != nil {
		return 0, nil, checkpointError(e)
	}
	body := b[:len(b)-4]
	if got := crc32.Checksum(body, crcTable); got != want {
		return 0, nil, &CheckpointError{Offset: len(body), Why: fmt.Sprintf("checksum mismatch: file %08x, computed %08x", want, got)}
	}
	return gen, payload, nil
}

// A CorruptCheckpointError reports one checkpoint generation that could
// not be loaded: torn, bit-flipped, truncated, or mis-encoded. The restore
// scan collects one per skipped generation.
type CorruptCheckpointError struct {
	Path string
	Gen  uint64
	Err  error
}

func (e *CorruptCheckpointError) Error() string {
	return fmt.Sprintf("serve: checkpoint generation %d (%s): %v", e.Gen, e.Path, e.Err)
}

func (e *CorruptCheckpointError) Unwrap() error { return e.Err }

// A NoValidCheckpointError reports a restore scan that found no loadable
// generation: either the directory holds none, or every one is damaged
// (each listed in Skipped, newest first).
type NoValidCheckpointError struct {
	Dir     string
	Skipped []*CorruptCheckpointError
}

func (e *NoValidCheckpointError) Error() string {
	if len(e.Skipped) == 0 {
		return fmt.Sprintf("serve: no checkpoint generations in %s", e.Dir)
	}
	return fmt.Sprintf("serve: all %d checkpoint generations in %s are corrupt (newest: %v)",
		len(e.Skipped), e.Dir, e.Skipped[0])
}

// RestoreReport documents a restore scan: the generation that loaded and
// every newer generation that had to be skipped as corrupt.
type RestoreReport struct {
	// Gen and Path identify the generation that restored.
	Gen  uint64
	Path string
	// Skipped lists newer generations that failed to load, newest first —
	// the operator-visible record of how much durability the fault cost.
	Skipped []*CorruptCheckpointError
}

// Store manages durable generational checkpoints in one directory. It is
// not safe for concurrent use; the server serializes checkpoint writes
// through its applier and mutex.
type Store struct {
	fs   faults.FS
	dir  string
	keep int
	gen  uint64 // last generation number handed out
}

// OpenStore opens (creating if needed) a generation directory. New writes
// continue after the highest generation already present — including
// corrupt ones, so a damaged newest generation is never overwritten in
// place.
func OpenStore(fs faults.FS, dir string, keep int) (*Store, error) {
	if fs == nil {
		fs = faults.OSFS{}
	}
	if keep <= 0 {
		keep = DefaultCheckpointKeep
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
	}
	st := &Store{fs: fs, dir: dir, keep: keep}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint dir scan: %w", err)
	}
	for _, name := range names {
		if gen, ok := parseGeneration(name); ok && gen > st.gen {
			st.gen = gen
		}
	}
	return st, nil
}

// Generations lists the complete (non-temp) generation numbers on disk in
// ascending order.
func (st *Store) Generations() ([]uint64, error) {
	names, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint dir scan: %w", err)
	}
	var gens []uint64
	for _, name := range names {
		if gen, ok := parseGeneration(name); ok {
			gens = append(gens, gen)
		}
	}
	return gens, nil
}

// Write durably persists one checkpoint as the next generation:
//
//	encode → seal → create temp → write → fsync(file) → close →
//	rename(temp, ckpt.NNNNNN) → fsync(dir) → prune old generations
//
// A crash or injected fault at ANY step leaves every previously completed
// generation untouched: the new bytes live under a temp name until the
// rename, the rename is atomic, and pruning runs only after the new
// generation is fully durable. On success it returns the generation
// number, its path, and the bytes written.
func (st *Store) Write(c *Checkpoint) (uint64, string, int, error) {
	payload, err := c.MarshalBinary()
	if err != nil {
		return 0, "", 0, err
	}
	// Claim the generation number before touching the disk so a failed
	// attempt never reuses a name a torn file might already occupy.
	st.gen++
	gen := st.gen
	b := sealEnvelope(gen, payload)
	final := st.dir + "/" + generationName(gen)
	tmp := faults.TempName(final)

	fail := func(stage string, err error) (uint64, string, int, error) {
		// Best-effort cleanup; the restore scan ignores temp files anyway.
		st.fs.Remove(tmp)
		return 0, "", 0, fmt.Errorf("serve: checkpoint %s: %w", stage, err)
	}
	f, err := st.fs.Create(tmp)
	if err != nil {
		return fail("create", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fail("write", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fail("fsync", err)
	}
	if err := f.Close(); err != nil {
		return fail("close", err)
	}
	if err := st.fs.Rename(tmp, final); err != nil {
		return fail("rename", err)
	}
	if err := st.fs.SyncDir(st.dir); err != nil {
		// The rename happened; the generation may or may not be durable.
		// Report the failure — the caller counts it — but do not prune:
		// the previous generation must survive until this one provably
		// does.
		return 0, "", 0, fmt.Errorf("serve: checkpoint dir fsync: %w", err)
	}
	st.prune(gen)
	return gen, final, len(b), nil
}

// prune removes generations older than the keep window, best-effort: a
// failed remove costs disk space, never correctness.
func (st *Store) prune(newest uint64) {
	if newest <= uint64(st.keep) {
		return
	}
	cutoff := newest - uint64(st.keep)
	names, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if gen, ok := parseGeneration(name); ok && gen <= cutoff {
			st.fs.Remove(st.dir + "/" + name)
		} else if faults.IsTemp(name) {
			// Leftover temp from a crashed write: never restorable, safe to
			// sweep.
			st.fs.Remove(st.dir + "/" + name)
		}
	}
}

// Restore scans generations newest→oldest and returns the first that
// loads cleanly, together with a report of every newer generation skipped
// as corrupt. If nothing loads it returns a *NoValidCheckpointError
// carrying the full damage list.
func (st *Store) Restore() (*Checkpoint, *RestoreReport, error) {
	gens, err := st.Generations()
	if err != nil {
		return nil, nil, err
	}
	report := &RestoreReport{}
	for i := len(gens) - 1; i >= 0; i-- {
		gen := gens[i]
		path := st.dir + "/" + generationName(gen)
		c, err := st.load(gen, path)
		if err != nil {
			report.Skipped = append(report.Skipped, &CorruptCheckpointError{Path: path, Gen: gen, Err: err})
			continue
		}
		report.Gen, report.Path = gen, path
		return c, report, nil
	}
	return nil, nil, &NoValidCheckpointError{Dir: st.dir, Skipped: report.Skipped}
}

// load reads and fully validates one generation file.
func (st *Store) load(gen uint64, path string) (*Checkpoint, error) {
	b, err := st.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	got, payload, err := openEnvelope(b)
	if err != nil {
		return nil, err
	}
	if got != gen {
		return nil, &CheckpointError{Offset: 5, Why: fmt.Sprintf("envelope generation %d under filename generation %d", got, gen)}
	}
	return UnmarshalServerCheckpoint(payload)
}

// RestoreLatest opens dir and restores its newest loadable generation —
// the one-call form `matchd -restore` uses. fs == nil uses the real
// filesystem.
func RestoreLatest(fs faults.FS, dir string) (*Checkpoint, *RestoreReport, error) {
	st, err := OpenStore(fs, dir, 0)
	if err != nil {
		return nil, nil, err
	}
	return st.Restore()
}
