package attacker

import (
	"cmp"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tripwire/internal/identity"
	"tripwire/internal/webgen"
)

// mixedDump is one dump per storage policy, concatenated: easy and hard
// passwords, provider emails in mixed case, and emails at other domains.
func mixedDump(t *testing.T) []webgen.DumpEntry {
	t.Helper()
	gen := identity.NewGenerator("bigmail.test", 11)
	emails := []func(local string) string{
		func(l string) string { return l + "@bigmail.test" },
		func(l string) string { return l + "@BigMail.Test" },
		func(l string) string { return l + "@othermail.test" },
		func(l string) string { return l + "@notbigmail.test" },
	}
	var dump []webgen.DumpEntry
	for _, policy := range []webgen.StoragePolicy{webgen.StorePlaintext, webgen.StoreReversible, webgen.StoreWeakHash, webgen.StoreStrongHash} {
		st := webgen.NewStore(policy)
		for i, mkEmail := range emails {
			for _, class := range []identity.PasswordClass{identity.Easy, identity.Hard} {
				id := gen.New(class)
				user := fmt.Sprintf("p%d-%d-%v", policy, i, class)
				salt := ""
				if policy == webgen.StoreStrongHash {
					salt = "salt-" + user
				}
				if _, err := st.Create(user, mkEmail(user), id.Password, salt, t0); err != nil {
					t.Fatal(err)
				}
			}
		}
		dump = append(dump, st.Dump()...)
	}
	return dump
}

func TestCrackFilteredDumpEqualsFilteredCredentials(t *testing.T) {
	dump := mixedDump(t)
	c := &Cracker{Words: identity.DictionaryWords()}

	got := c.Crack(FilterByDomain(dump, "bigmail.test"))

	var want []Credential
	for _, cred := range c.Crack(dump) {
		if strings.HasSuffix(strings.ToLower(cred.Email), "@bigmail.test") {
			want = append(want, cred)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("crack(filter(dump)) = %+v\nfilter(crack(dump)) = %+v", got, want)
	}
	// Per policy and provider-case: plaintext and reversible give up both
	// passwords, hashed stores only the easy one.
	if len(got) != 2*(2+2+1+1) {
		t.Fatalf("recovered %d provider credentials, want 12: %+v", len(got), got)
	}

	byUser := make(map[string]webgen.DumpEntry, len(dump))
	for _, e := range dump {
		byUser[e.Username] = e
	}
	for _, cred := range got {
		e := byUser[cred.Username]
		if e.Email != cred.Email || webgen.EncodePassword(e.Policy, cred.Password, e.Salt) != e.Stored {
			t.Errorf("credential %+v does not reproduce entry %+v", cred, e)
		}
	}
}

func TestCrackOrderWorkerInvariant(t *testing.T) {
	words := identity.DictionaryWords()
	var dump []webgen.DumpEntry
	for _, policy := range []webgen.StoragePolicy{webgen.StorePlaintext, webgen.StoreWeakHash} {
		st := webgen.NewStore(policy)
		for i := 0; i < 64; i++ {
			// Eight accounts share each email address.
			email := fmt.Sprintf("shared%d@bigmail.test", i%8)
			pw := strings.ToUpper(words[i][:1]) + words[i][1:] + "7"
			if _, err := st.Create(fmt.Sprintf("user%02d-%d", i, policy), email, pw, "", t0); err != nil {
				t.Fatal(err)
			}
		}
		dump = append(dump, st.Dump()...)
	}
	serial := (&Cracker{Words: words, Workers: 1}).Crack(dump)
	if len(serial) != len(dump) {
		t.Fatalf("recovered %d of %d", len(serial), len(dump))
	}
	for i := 1; i < len(serial); i++ {
		a, b := serial[i-1], serial[i]
		if cmp.Or(strings.Compare(a.Email, b.Email), strings.Compare(a.Username, b.Username)) >= 0 {
			t.Fatalf("output not ordered by (Email, Username) at %d: %+v before %+v", i, a, b)
		}
	}
	parallel := &Cracker{Words: words, Workers: 8}
	for run := 0; run < 10; run++ {
		if got := parallel.Crack(dump); !reflect.DeepEqual(got, serial) {
			t.Fatalf("run %d: Workers 8 output differs from Workers 1", run)
		}
	}
}

func TestCandidatesShape(t *testing.T) {
	cands := Candidates([]string{"website", "account"})
	if len(cands) != 20 || cands[0] != "Website0" || cands[9] != "Website9" || cands[10] != "Account0" {
		t.Fatalf("candidates = %v", cands)
	}
	bf := &BruteForcer{Words: []string{"website", "account"}, MaxGuessesPerAccount: 3}
	if got := bf.candidates(); !reflect.DeepEqual(got, cands[:3]) {
		t.Fatalf("brute-force candidates = %v, want the first 3 dictionary guesses", got)
	}
}
