// Package cache is the sweep subsystem's content-addressed artifact
// store. An artifact is any byte blob whose production is a pure
// function of an input description — a trained TPM, a finished
// experiment's result JSON. The key is the SHA-256 of the canonical
// (JSON) encoding of that description, so two runs that would compute
// the same thing resolve to the same file, across processes and across
// the test suite. Writes go through internal/atomicio, so a crash
// mid-store leaves the cache either without the entry or with the
// complete entry — never a torn artifact that a later run would
// half-read.
//
// Cache keys must include everything the computation depends on,
// including a version component for the producing code (bump it when
// the algorithm changes); the store itself never invalidates.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"srcsim/internal/atomicio"
)

// Cache is a directory of content-addressed artifacts. A nil *Cache is
// valid and always misses, so callers can thread an optional cache
// without branching.
type Cache struct {
	dir string
}

// New returns a cache rooted at dir (created lazily on first store).
func New(dir string) *Cache {
	if dir == "" {
		return nil
	}
	return &Cache{dir: dir}
}

// Key derives a content address from the canonical JSON encoding of
// parts. Each part must marshal deterministically (structs, strings,
// numbers, and maps — encoding/json sorts map keys). Unencodable parts
// panic: keys are built from static descriptions, so that is a
// programming error, not a runtime condition.
func Key(parts ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			panic(fmt.Sprintf("cache: unencodable key part %T: %v", p, err))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// path maps a key to its file, sharded by the first byte so one
// directory never accumulates every artifact.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key)
}

// Get reads the whole cached artifact, or ok=false on a miss (or a nil
// cache).
func (c *Cache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	return b, true
}

// Put stores the artifact produced by write under key, crash-safely.
// On a nil cache it runs write against io.Discard so producers always
// observe one code path.
func (c *Cache) Put(key string, write func(io.Writer) error) error {
	if c == nil {
		return write(io.Discard)
	}
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o777); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	return atomicio.WriteFile(p, write)
}
