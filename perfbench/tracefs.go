package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"acd/internal/journal"
)

// traceTree wraps journal.DirTree so the replay can time the journal's
// file operations. WAL files (wal-*) and checkpoint files (snap-*) are
// told apart by name. Every span is parented to the replay operation
// in flight (parent), which the single-goroutine replay sets around
// each call.
//
// A checkpoint span covers a whole automatic checkpoint: from the end
// of the WAL fsync before it (the record append that triggered it),
// through building and encoding the snapshot, to the last directory
// operation before the next WAL write.
type traceTree struct {
	inner  journal.DirTree
	tr     *tracer
	parent *atomic.Int64

	mu sync.Mutex
	// lastWALSync is when the latest WAL fsync ended; ckpt is the
	// checkpoint being written, if any.
	lastWALSync time.Duration
	ckpt        *span
}

func newTraceTree(dir string, tr *tracer, parent *atomic.Int64) (*traceTree, error) {
	d, err := journal.NewDirTree(dir)
	if err != nil {
		return nil, err
	}
	return &traceTree{inner: d, tr: tr, parent: parent}, nil
}

// Root implements journal.Tree.
func (t *traceTree) Root() journal.FS { return &traceFS{inner: t.inner.Root(), t: t} }

// Sub implements journal.Tree.
func (t *traceTree) Sub(name string) (journal.FS, error) {
	fs, err := t.inner.Sub(name)
	if err != nil {
		return nil, err
	}
	return &traceFS{inner: fs, t: t}, nil
}

// op times one file operation as a span and feeds the checkpoint
// bookkeeping.
func (t *traceTree) op(name, file string, n int64, f func() error) error {
	start := t.tr.now()
	err := f()
	end := t.tr.now()
	parent := t.parent.Load()
	t.tr.add(span{Name: name, Parent: parent, Start: start, End: end, N: n})

	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case strings.HasPrefix(file, "wal-") && name == "journal/WriteWAL":
		t.closeCheckpointLocked()
	case strings.HasPrefix(file, "wal-") && name == "journal/SyncWAL":
		t.lastWALSync = end
	case strings.HasPrefix(file, "snap-") && name == "journal/CreateCheckpoint" && t.ckpt == nil:
		t.ckpt = &span{Name: "journal/Checkpoint", Parent: parent, Start: t.lastWALSync, End: end}
	}
	if t.ckpt != nil && end > t.ckpt.End {
		t.ckpt.End = end
	}
	return err
}

func (t *traceTree) closeCheckpointLocked() {
	if t.ckpt != nil {
		t.tr.add(*t.ckpt)
		t.ckpt = nil
	}
}

// flush records a checkpoint still open at the end of the replay.
func (t *traceTree) flush() {
	t.mu.Lock()
	t.closeCheckpointLocked()
	t.mu.Unlock()
}

// traceFS is one directory of a traceTree.
type traceFS struct {
	inner journal.FS
	t     *traceTree
}

func kindOf(name string) string {
	if strings.HasPrefix(name, "snap-") {
		return "Checkpoint"
	}
	return "WAL"
}

func (f *traceFS) Create(name string) (journal.File, error) {
	var file journal.File
	err := f.t.op("journal/Create"+kindOf(name), name, 0, func() error {
		var err error
		file, err = f.inner.Create(name)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &tracedFile{inner: file, name: name, t: f.t}, nil
}

func (f *traceFS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }
func (f *traceFS) List() ([]string, error)              { return f.inner.List() }

func (f *traceFS) Rename(oldname, newname string) error {
	return f.t.op("journal/Rename", oldname, 0, func() error { return f.inner.Rename(oldname, newname) })
}

func (f *traceFS) Remove(name string) error {
	return f.t.op("journal/Remove", name, 0, func() error { return f.inner.Remove(name) })
}

func (f *traceFS) SyncDir() error {
	return f.t.op("journal/SyncDir", "", 0, f.inner.SyncDir)
}

// traceFile times writes and fsyncs of one journal file.
type tracedFile struct {
	inner journal.File
	name  string
	t     *traceTree
}

func (f *tracedFile) Write(p []byte) (int, error) {
	var n int
	err := f.t.op("journal/Write"+kindOf(f.name), f.name, int64(len(p)), func() error {
		var err error
		n, err = f.inner.Write(p)
		return err
	})
	return n, err
}

func (f *tracedFile) Sync() error {
	return f.t.op("journal/Sync"+kindOf(f.name), f.name, 0, f.inner.Sync)
}

func (f *tracedFile) Close() error { return f.inner.Close() }
