package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"sunfloor3d"
)

// digestFile is the committed output gate: the digests of every call the
// workloads make at one seed.
type digestFile struct {
	Seed  int64                 `json:"seed"`
	Calls map[string]callDigest `json:"calls"`
}

// callDigest identifies the output of one call: the SHA-256 of its
// Result.MarshalStable bytes, and, for simulated results, the SHA-256 of
// every simulated point's statistics in point order (simulation statistics
// are not part of the serialised result).
type callDigest struct {
	Result string `json:"result"`
	Sim    string `json:"sim,omitempty"`
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// digestOf computes the digest of a result from its serialised bytes.
func digestOf(res *sunfloor3d.Result, stable []byte) (callDigest, error) {
	d := callDigest{Result: sha(stable)}
	h := sha256.New()
	simulated := false
	for i := range res.Points {
		if res.Points[i].Sim == nil {
			continue
		}
		b, err := json.Marshal(res.Points[i].Sim)
		if err != nil {
			return callDigest{}, err
		}
		fmt.Fprintf(h, "%d:%s\n", i, b)
		simulated = true
	}
	if simulated {
		d.Sim = hex.EncodeToString(h.Sum(nil))
	}
	return d, nil
}

func loadDigests(path string) (*digestFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f digestFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return &f, nil
}

func (f *digestFile) save(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checker gates the outputs of one run: at the committed seed every call
// must match its committed digest, and at every seed a call repeated within
// the run must give identical bytes.
type checker struct {
	ref  *digestFile // nil when the run's seed has no committed digests
	seen map[string]callDigest
}

func newChecker(ref *digestFile, seed int64) *checker {
	c := &checker{seen: map[string]callDigest{}}
	if ref != nil && ref.Seed == seed {
		c.ref = ref
	}
	return c
}

// check returns why the digest is wrong, or "" when it is right.
func (c *checker) check(label string, d callDigest) string {
	if c.ref != nil {
		want, ok := c.ref.Calls[label]
		if !ok {
			return fmt.Sprintf("%s: no committed digest (run -update-digests)", label)
		}
		if want != d {
			return fmt.Sprintf("%s: output differs from the committed digest", label)
		}
	}
	if prev, ok := c.seen[label]; ok && prev != d {
		return fmt.Sprintf("%s: a repeated call gave different output", label)
	}
	c.seen[label] = d
	return ""
}
