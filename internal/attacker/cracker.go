// Package attacker simulates the adversary whose behaviour Tripwire
// detects: it breaches site account databases, runs a real dictionary
// attack against hashed dumps (recovering exactly the easy passwords, never
// the hard ones), and feeds recovered credentials into a credential-
// stuffing botnet that logs in to the email provider over IMAP through a
// global residential proxy network — reproducing the login telemetry of
// paper §6.4.
package attacker

import (
	"cmp"
	"crypto/md5"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"slices"
	"strings"
	"sync"

	"tripwire/internal/webgen"
)

// Credential is one recovered (email, password) pair.
type Credential struct {
	Username string
	Email    string
	Password string
}

// Cracker recovers plaintext passwords from a breached dump. The wordlist
// is the attacker's dictionary; easy passwords (Word+digit) are inside it
// by construction, hard random passwords are not — so recovery rates follow
// from actual hash computation rather than simulation fiat.
type Cracker struct {
	// Words is the dictionary of seven-letter base words.
	Words []string
	// Workers bounds cracking concurrency; 0 means GOMAXPROCS.
	Workers int

	once  sync.Once
	cands []string                  // Candidates(Words)
	weak  map[[md5.Size]byte]string // unsalted digest -> candidate
}

// Candidates enumerates the dictionary-attack candidate passwords in
// guessing order: capitalized word + single digit, the dominant
// weak-password shape.
func Candidates(words []string) []string {
	out := make([]string, 0, len(words)*10)
	for _, w := range words {
		cap := strings.ToUpper(w[:1]) + w[1:]
		for d := '0'; d <= '9'; d++ {
			out = append(out, cap+string(d))
		}
	}
	return out
}

// prepare builds the candidate list and, since unsalted hashes can be
// precomputed, the candidate table for StoreWeakHash entries — once per
// Cracker, as a real attacker would.
func (c *Cracker) prepare() {
	c.cands = Candidates(c.Words)
	c.weak = make(map[[md5.Size]byte]string, len(c.cands))
	for _, cand := range c.cands {
		c.weak[webgen.WeakHashDigest(cand)] = cand
	}
}

// Crack processes a dump and returns every credential the attacker
// recovers, ordered by (Email, Username). Plaintext and reversible entries
// are recovered outright; hashed entries fall only to the dictionary.
func (c *Cracker) Crack(dump []webgen.DumpEntry) []Credential {
	if len(dump) == 0 {
		return nil
	}
	c.once.Do(c.prepare)
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(dump))
	jobs := make(chan webgen.DumpEntry)
	results := make(chan Credential)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range jobs {
				if pw, ok := c.crackOne(e); ok {
					results <- Credential{Username: e.Username, Email: e.Email, Password: pw}
				}
			}
		}()
	}
	go func() {
		for _, e := range dump {
			jobs <- e
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	var out []Credential
	for cred := range results {
		out = append(out, cred)
	}
	slices.SortFunc(out, func(a, b Credential) int {
		return cmp.Or(strings.Compare(a.Email, b.Email), strings.Compare(a.Username, b.Username))
	})
	return out
}

// crackOne attempts recovery of a single entry. Hashed entries are compared
// as raw digests: the stored hex is decoded once per entry, never a
// candidate encoded per guess.
func (c *Cracker) crackOne(e webgen.DumpEntry) (string, bool) {
	switch e.Policy {
	case webgen.StorePlaintext:
		return e.Stored, true
	case webgen.StoreReversible:
		return webgen.DecodeReversible(e.Stored)
	case webgen.StoreWeakHash:
		var want [md5.Size]byte
		if !decodeDigest(want[:], e.Stored) {
			return "", false
		}
		cand, ok := c.weak[want]
		return cand, ok
	case webgen.StoreStrongHash:
		var want [sha256.Size]byte
		if !decodeDigest(want[:], e.Stored) {
			return "", false
		}
		for _, cand := range c.cands {
			if webgen.StrongHashDigest(cand, e.Salt) == want {
				return cand, true
			}
		}
		return "", false
	default:
		return "", false
	}
}

// decodeDigest decodes the hex digest s into dst, reporting whether s is
// exactly len(dst) bytes of valid hex.
func decodeDigest(dst []byte, s string) bool {
	if len(s) != hex.EncodedLen(len(dst)) {
		return false
	}
	_, err := hex.Decode(dst, []byte(s))
	return err == nil
}

// FilterByDomain keeps only dump entries whose email is under domain — the
// attacker testing "the most sensitive and important credentials", those at
// a major email provider (paper §1).
func FilterByDomain(dump []webgen.DumpEntry, domain string) []webgen.DumpEntry {
	var out []webgen.DumpEntry
	suffix := "@" + strings.ToLower(domain)
	for _, e := range dump {
		if strings.HasSuffix(strings.ToLower(e.Email), suffix) {
			out = append(out, e)
		}
	}
	return out
}
