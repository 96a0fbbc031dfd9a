package atomicio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return left
}

func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, content := range []string{"first", "second longer content"} {
		if err := WriteFile(path, func(w io.Writer) error {
			_, err := w.Write([]byte(content))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Errorf("content = %q, want %q", got, content)
		}
	}
	if left := tempFiles(t, dir); len(left) != 0 {
		t.Errorf("temp files left behind after successful write: %v", left)
	}
}

func TestWriteFileFailureLeavesOldContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("boom")
	if err := WriteFile(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old" {
		t.Errorf("failed write clobbered target: %q", got)
	}
	if left := tempFiles(t, dir); len(left) != 0 {
		t.Errorf("temp files left behind after failed write: %v", left)
	}
}

// Two writers of one path must not share a temp file: whichever renames
// last, the final path holds one writer's bytes whole. (With a temp named
// path+".tmp", B truncated and renamed the inode A was half-way through, and
// A's second half landed in the file already at the final name.)
func TestTwoWritersOnePath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	a := bytes.Repeat([]byte("A"), 4096)
	b := bytes.Repeat([]byte("B"), 4096)

	halfWritten, resume := make(chan struct{}), make(chan struct{})
	errA := make(chan error, 1)
	go func() {
		errA <- WriteFile(path, func(w io.Writer) error {
			if _, err := w.Write(a[:len(a)/2]); err != nil {
				return err
			}
			close(halfWritten)
			<-resume
			_, err := w.Write(a[len(a)/2:])
			return err
		})
	}()
	<-halfWritten
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	close(resume)
	if err := <-errA; err != nil {
		t.Errorf("writer A: %v", err)
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a) && !bytes.Equal(got, b) {
		t.Errorf("final path holds neither writer's bytes: %d bytes, %q ... %q", len(got), got[:8], got[len(got)-8:])
	}
	if left := tempFiles(t, dir); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

// The temp file must not change the mode callers get: os.Create's 0666
// before umask, not os.CreateTemp's 0600.
func TestWriteFileMode(t *testing.T) {
	dir := t.TempDir()
	ref, err := os.Create(filepath.Join(dir, "ref"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	want, err := os.Stat(ref.Name())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "f")
	if err := WriteFile(path, func(io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	got, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode() != want.Mode() {
		t.Errorf("mode = %v, want os.Create's %v", got.Mode(), want.Mode())
	}
}

// A leftover under the name the next call would pick (a crashed writer with
// a recycled pid) is neither written through nor a failure: the call moves
// on to the next number and leaves the leftover for the owner's sweep.
func TestExistingTempNameIsSkipped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	stale := fmt.Sprintf("%s.%d-%d.tmp", path, os.Getpid(), tempSeq.Load()+1)
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Errorf("content = %q, want %q", got, "new")
	}
	if got, _ := os.ReadFile(stale); string(got) != "torn" {
		t.Errorf("leftover temp was overwritten: %q", got)
	}
}
