package durable

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.json")
	for _, want := range []string{"first\n", "second, longer\n", "3\n"} {
		if err := WriteFile(path, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("read %q, want %q", got, want)
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, want 0644", st.Mode().Perm())
	}
	// No temp file outlives a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the target", len(entries))
	}
}

func TestWriteFileErrors(t *testing.T) {
	dir := t.TempDir()
	// Missing parent directory: the temp file cannot be created.
	if err := WriteFile(filepath.Join(dir, "nope", "f"), []byte("x"), 0o644); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	// A directory in the way: the rename fails and the temp is removed.
	target := filepath.Join(dir, "taken")
	if err := os.MkdirAll(filepath.Join(target, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(target, []byte("x"), 0o644); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a failed write, want only the blocker", len(entries))
	}
}
