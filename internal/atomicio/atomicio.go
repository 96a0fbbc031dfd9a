// Package atomicio holds the one durable-file primitive shared by the
// on-disk stores (profiledb's profile/metadata files, runcache's persisted
// run results, tsdb's segments and blocks): crash-safe whole-file
// replacement. What goes in the files is internal/wire's business.
//
// The write protocol is the classic temp+fsync+rename sequence: data is
// written to a temporary file in the target's directory, synced, closed,
// and renamed over the final name. Readers therefore only ever observe the
// old content or the complete new content — never a torn file at the final
// path — which is what lets a crashed writer's leftovers be recovered by
// deleting stale ".tmp" files and quarantining anything that fails to
// decode.
package atomicio

import (
	"io"
	"os"
)

// WriteFile writes via a temp file in the target's directory, syncing
// before the rename, so readers only ever see the old content or the
// complete new content — never a torn file at the final name.
func WriteFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
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
