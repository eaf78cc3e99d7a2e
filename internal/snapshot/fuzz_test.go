package snapshot

import (
	"bytes"
	"testing"
)

// FuzzSnapshotDecode hammers the container decoder with truncated,
// bit-flipped, and version-skewed inputs. The invariants: Decode never
// panics, never allocates proportionally to a corrupt length field (the
// caps are exercised by seeds claiming absurd counts), and anything it
// accepts re-encodes to exactly the bytes it read — so a mutation either
// fails loudly or was semantically harmless.
//
// The f.Add seeds double as the committed regression corpus: `go test`
// runs them on every CI pass without -fuzz.
func FuzzSnapshotDecode(f *testing.F) {
	// A well-formed multi-section file.
	good := New()
	good.Add("config", []byte("cfg-bytes"))
	good.Add("provider", bytes.Repeat([]byte{0xab}, 300))
	good.Add("", nil) // empty name and payload are legal
	goodBytes := Encode(good)
	f.Add(goodBytes)

	// Truncations at structurally interesting boundaries.
	f.Add(goodBytes[:4])                        // magic only
	f.Add(goodBytes[:6])                        // magic + version
	f.Add(goodBytes[:len(goodBytes)/2])         // mid-section
	f.Add(goodBytes[:len(goodBytes)-2])         // inside the final CRC
	f.Add(append(bytes.Clone(goodBytes), 0xee)) // trailing garbage

	// Version skew.
	skew := &File{Version: Version + 7}
	skew.Add("s", []byte("x"))
	f.Add(Encode(skew))

	// Hostile counts and lengths: a header claiming 2^40 sections, and a
	// section claiming a 2^40-byte payload.
	e := NewEncoder()
	e.Uint(Version)
	e.Uint(1 << 40)
	f.Add(append([]byte(Magic), e.Bytes()...))
	e = NewEncoder()
	e.Uint(Version)
	e.Uint(1)
	e.Uint(4)
	e.b = append(e.b, "name"...)
	e.Uint(1 << 40)
	f.Add(append([]byte(Magic), e.Bytes()...))

	// Wrong magic.
	f.Add([]byte("NSWT\x01\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Decode(data)
		if err != nil {
			return
		}
		// Anything accepted must re-encode to a decodable, semantically
		// identical file (byte-identity with the input is not required:
		// varint decoding tolerates non-minimal encodings).
		again, err := Decode(Encode(file))
		if err != nil {
			t.Fatalf("re-encode of accepted input failed to decode: %v", err)
		}
		if len(again.Sections) != len(file.Sections) {
			t.Fatalf("re-decode lost sections: %d != %d", len(again.Sections), len(file.Sections))
		}
		for i := range file.Sections {
			if again.Sections[i].Name != file.Sections[i].Name ||
				!bytes.Equal(again.Sections[i].Data, file.Sections[i].Data) {
				t.Fatalf("section %d changed across re-encode", i)
			}
		}
		// And the decoded primitives layer must survive arbitrary section
		// payloads without panicking.
		for _, s := range file.Sections {
			d := NewDecoder(s.Data)
			for d.Err() == nil && d.Remaining() > 0 {
				_ = d.Uint()
				_ = d.String()
				_ = d.Time()
			}
		}
	})
}
