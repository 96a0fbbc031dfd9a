// Package atomicio holds the one durable-file primitive shared by the
// on-disk stores (profiledb's profile/metadata files, runcache's persisted
// run results, tsdb's segments and blocks): crash-safe whole-file
// replacement. What goes in the files is internal/wire's business.
//
// The write protocol is the classic temp+fsync+rename sequence: data is
// written to a temporary file of the call's own in the target's directory,
// synced, closed, and renamed over the final name. Readers therefore only
// ever observe the old content or the complete new content — never a torn
// file at the final path — which is what lets a crashed writer's leftovers
// be recovered by deleting stale ".tmp" files and quarantining anything
// that fails to decode.
package atomicio

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync/atomic"
)

// tempSeq numbers this process's temp files.
var tempSeq atomic.Uint64

// createTemp creates path's temp file for one WriteFile call. Every call gets
// a file of its own ("<path>.<pid>-<n>.tmp"), so two writers of one path —
// goroutines, or processes sharing the directory — never write through one
// inode; O_EXCL turns a name that already exists (a crashed writer's leftover
// under a recycled pid, the same pid on another host of a shared filesystem)
// into the next number. The mode is os.Create's: 0666 before umask.
func createTemp(path string) (*os.File, error) {
	for {
		tmp := fmt.Sprintf("%s.%d-%d.tmp", path, os.Getpid(), tempSeq.Add(1))
		f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
}

// WriteFile writes via a temp file in the target's directory, syncing
// before the rename, so readers only ever see the old content or the
// complete new content — never a torn file at the final name. When several
// writers replace one path concurrently, the last rename wins whole.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := createTemp(path)
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := write(f); err != nil {
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
	return os.Rename(tmp, path)
}
