package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"tripwire"
)

// recordedDigests holds the SHA-256 of Summary() for each workload at the
// seeds it has been recorded at. The paper digests equal those of
// `tripwire -scale paper -seed N` stdout. A study at a recorded seed whose
// summary hashes differently fails the correctness gate; at any seed, the
// driver fails a study whose digest differs from an earlier study of the
// same run and seed.
var recordedDigests = map[string]map[int64]string{
	"paper": {
		7:  "51000564184013a810558c4789cef6cfe75ad8126ab80954788ad8fb95ff2054",
		42: "8d2ed336d09c4a30c9c59be001b3a98b070fa9e9880011b80df2a9da55cf6646",
	},
	"crawl": {
		7:  "3fffcf0cb66347cbc12913590fa7c7af7ce70b087ece15002aa69bf87fc43317",
		42: "d51460b1a49e8c93e7b16daa110a929d55707b62d3df6f152e03e40cff392ffa",
	},
	"stuffing": {
		7:  "41bbe24b4e20c0bb10d179ff7bf64c9b78e7e17aee35f29876b7e95fb2c9bf24",
		42: "f6b6edb6aebaca97021db9dc18d4f1882817487cb66d286ea4dddd0b83582bdc",
	},
}

func summaryDigest(summary string) string {
	sum := sha256.Sum256([]byte(summary))
	return hex.EncodeToString(sum[:])
}

// gate checks a finished study against the simulator's ground truth —
// Tripwire's inference is "a login to this honey account means this site
// leaked" — and its summary against the recorded digest (none when want
// is empty).
func gate(s *tripwire.Study, summary, want string) error {
	if st := s.Status(); st.Phase != "done" {
		return fmt.Errorf("study ended in phase %q: %s", st.Phase, st.Error)
	}
	p := s.Pilot()
	breaches := p.Campaign.Breaches()
	for _, d := range s.Detections() {
		at, ok := breaches[d.Domain]
		if !ok {
			return fmt.Errorf("false positive: detection at %s without a scheduled breach", d.Domain)
		}
		if !d.FirstSeen.After(at) {
			return fmt.Errorf("detection at %s dated %s, not after its breach at %s", d.Domain, d.FirstSeen, at)
		}
		if len(p.Ledger.SiteRegistrations(d.Domain)) == 0 {
			return fmt.Errorf("detection at %s has no registration", d.Domain)
		}
	}
	if !s.IntegrityOK() {
		return fmt.Errorf("%d integrity alarms: an unused honey account was accessed", len(p.Monitor.Alarms()))
	}
	if p.Monitor.ControlLoginsSeen() == 0 {
		return fmt.Errorf("no control logins seen: the provider's login reporting is broken")
	}
	if got := summaryDigest(summary); want != "" && got != want {
		return fmt.Errorf("summary digest %s, recorded %s", got, want)
	}
	return nil
}
