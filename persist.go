package colarm

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"colarm/internal/mip"
)

// Save serializes the engine's dataset and the parameters its MIP-index
// was built at (primary count, R-tree fanout) plus its live-ingestion
// state — generation and any buffered delta transactions — to w.
// LoadEngine builds the index again from those rows, with the code Open
// runs, so the loaded engine answers exactly as the saved one. A
// snapshot taken mid-ingest restores to the exact same answers: the
// delta rides along and is replayed on load.
func (e *Engine) Save(w io.Writer) error {
	rows, dels := e.delta.Snapshot()
	meta := mip.SnapshotMeta{
		Primary:    e.primary,
		Generation: e.gen,
		DeltaRows:  rows,
	}
	for _, id := range dels {
		meta.DeltaDels = append(meta.DeltaDels, int32(id))
	}
	return e.idx.WriteSnapshot(w, meta)
}

// SaveFile writes the index snapshot to a file. The file at path is
// replaced only by a complete snapshot: a failed or interrupted save
// leaves the previous one as it was.
func (e *Engine) SaveFile(path string) error {
	return writeFileAtomic(path, e.Save)
}

// writeFileAtomic hands write a temporary file beside path, makes its
// bytes durable and renames it over path; on any error the temporary
// file is removed and path is untouched.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = func() error {
		// CreateTemp makes the file 0600; a snapshot stays as readable
		// as the file os.Create used to leave under the usual umask.
		if err := f.Chmod(0o644); err != nil {
			return err
		}
		if err := write(f); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return os.Rename(f.Name(), path)
	}()
	if err != nil {
		f.Close() // harmless after the checked Close above
		os.Remove(f.Name())
		return err
	}
	// The rename is durable once the directory entry is.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// LoadEngine restores an engine from a snapshot written by Save,
// building its index from the snapshot's rows. Of opts only Metrics is read; the index parameters (primary
// support, fanout), the engine generation and any buffered delta come
// from the snapshot. A snapshot of any other format version fails with
// ErrSnapshotVersion.
func LoadEngine(r io.Reader, opts Options) (*Engine, error) {
	idx, meta, err := mip.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return engineFromIndex(idx, meta, opts)
}

// LoadEngineFile restores an engine from a snapshot file.
func LoadEngineFile(path string, opts Options) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadEngine(f, opts)
}

func engineFromIndex(idx *mip.Index, meta mip.SnapshotMeta, opts Options) (*Engine, error) {
	// The fraction every merged view is re-mined at, and Rebuild mines
	// at: a value outside [0,1] — NaN included — is a corrupt stream.
	// ReadSnapshot recovered an unrecorded one, so 0 is left only for an
	// index of no records.
	if !(meta.Primary >= 0 && meta.Primary <= 1) {
		return nil, fmt.Errorf("colarm: snapshot primary support %v outside [0,1]", meta.Primary)
	}
	e := newEngine(idx, meta.Primary, opts.Metrics.registry())
	e.gen = meta.Generation
	if len(meta.DeltaRows) > 0 || len(meta.DeltaDels) > 0 {
		dels := make([]int, len(meta.DeltaDels))
		for i, id := range meta.DeltaDels {
			dels[i] = int(id)
		}
		// Restoring persisted state is not a fresh ingest, so ingest
		// metrics stay untouched.
		if _, err := e.delta.Ingest(meta.DeltaRows, dels); err != nil {
			return nil, err
		}
	}
	return e, nil
}
