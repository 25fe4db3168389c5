package cache

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestKeyDeterministicAndSensitive(t *testing.T) {
	type spec struct {
		Name  string
		Count int
	}
	a := Key("v1", spec{"fig7", 100})
	b := Key("v1", spec{"fig7", 100})
	if a != b {
		t.Fatalf("same parts, different keys: %s vs %s", a, b)
	}
	if Key("v1", spec{"fig7", 101}) == a {
		t.Fatal("count change did not change key")
	}
	if Key("v2", spec{"fig7", 100}) == a {
		t.Fatal("version change did not change key")
	}
	// Map keys are sorted by encoding/json, so insertion order is
	// irrelevant.
	m1 := map[string]string{"a": "1", "b": "2"}
	m2 := map[string]string{"b": "2", "a": "1"}
	if Key(m1) != Key(m2) {
		t.Fatal("map insertion order leaked into key")
	}
}

func TestComputeErrorStoresNothing(t *testing.T) {
	dir := t.TempDir()
	c := New(dir)
	key := Key("broken")
	boom := errors.New("boom")
	err := c.Put(key, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("failed compute left an artifact")
	}
	// The shard dir may exist but must hold no files.
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			t.Fatalf("stray file %s", path)
		}
		return nil
	})
}

func TestNilCacheMissesAndComputes(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("ab"); ok {
		t.Fatal("nil cache hit")
	}
	computes := 0
	if err := c.Put(Key("x"), func(w io.Writer) error {
		computes++
		_, err := w.Write([]byte("fresh"))
		return err
	}); err != nil || computes != 1 {
		t.Fatalf("nil cache Put: computes=%d err=%v", computes, err)
	}
	if _, ok := c.Get(Key("x")); ok {
		t.Fatal("nil cache stored an artifact")
	}
	boom := errors.New("boom")
	if err := c.Put(Key("y"), func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("nil cache Put err = %v", err)
	}
	if New("") != nil {
		t.Fatal(`New("") should be nil`)
	}
}

func TestPutThenOpenRoundTrip(t *testing.T) {
	c := New(t.TempDir())
	key := Key("roundtrip")
	if err := c.Put(key, func(w io.Writer) error {
		_, err := w.Write([]byte{1, 2, 3})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	b, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("got %v", b)
	}
}
