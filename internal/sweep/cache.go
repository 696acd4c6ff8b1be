package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Cache is the on-disk result cache: one JSON file per completed point,
// named by SHA-256 of the version salt and the point key. A campaign
// interrupted halfway resumes by skipping every point whose file exists;
// changing the salt (or the key scheme) orphans old entries rather than
// serving stale results.
//
// Entries are written atomically (temp file + rename), so a crash never
// leaves a partial entry behind, and concurrent sweeps sharing a
// directory at worst redo a point. Files are self-describing — they
// carry the salt and key alongside the value — and Get verifies both, so
// a hash collision or a hand-edited file surfaces as an error instead of
// a silently wrong figure.
type Cache struct {
	dir  string
	salt string
}

// cacheEntry is the JSON schema of one cache file.
type cacheEntry struct {
	Salt  string          `json:"salt"`
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// NewCache opens (creating if needed) a cache directory. salt is the
// code-version discriminator: results are only served back to sweeps
// using the same salt, so bumping it invalidates the whole cache without
// touching the directory.
func NewCache(dir, salt string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("sweep: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: create cache dir: %w", err)
	}
	return &Cache{dir: dir, salt: salt}, nil
}

// path maps a point key to its entry file.
func (c *Cache) path(key string) string {
	sum := sha256.Sum256([]byte(c.salt + "\x00" + key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+".json")
}

// Get loads the cached value for key into out (a pointer), reporting
// whether an entry existed. A missing file is a miss; a present but
// undecodable or mismatched entry is an error.
func (c *Cache) Get(key string, out any) (bool, error) {
	data, err := os.ReadFile(c.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	var ent cacheEntry
	if err := json.Unmarshal(data, &ent); err != nil {
		return false, fmt.Errorf("decode cache entry for %s: %w", key, err)
	}
	if ent.Salt != c.salt || ent.Key != key {
		return false, fmt.Errorf("cache entry mismatch: file claims salt=%q key=%q, want salt=%q key=%q",
			ent.Salt, ent.Key, c.salt, key)
	}
	if err := json.Unmarshal(ent.Value, out); err != nil {
		return false, fmt.Errorf("decode cached value for %s: %w", key, err)
	}
	return true, nil
}

// Put persists the value for key atomically.
func (c *Cache) Put(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode value for %s: %w", key, err)
	}
	data, err := json.Marshal(cacheEntry{Salt: c.salt, Key: key, Value: raw})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, "entry-*.tmp")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return errors.Join(werr, cerr)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
