package imap

import (
	"net/netip"
	"testing"
	"time"

	"tripwire/internal/memconn"
)

// FuzzServeConn feeds arbitrary client bytes to one IMAP server session
// over a memconn pair whose client half-closes after writing them. Whatever
// the bytes, the session must return once they are drained, without a
// panic. The f.Add seeds are the committed regression corpus: plain
// `go test` runs them.
func FuzzServeConn(f *testing.F) {
	for _, seed := range []string{
		"a1 CAPABILITY\r\na2 LOGIN \"fz@mail.test\" \"pw123456\"\r\na3 SELECT INBOX\r\na4 FETCH 1:* (BODY[])\r\na5 NOOP\r\na6 LOGOUT\r\n",
		"a1 LOGIN fz@mail.test pw123456\r\na2 SELECT INBOX\r\na3 FETCH 2 (BODY[])\r\na4 FETCH 1,*,9 (BODY[])\r\n",
		"a1 LOGIN \"fz@mail.test\" \"wrong\"\r\na2 SELECT INBOX\r\na3 FETCH 1 (BODY[])\r\n",
		"a1 LOGIN {12}\r\nfz@mail.test {8}\r\npw123456\r\na2 SELECT \"INBOX\r\n",
		"a1 LOGIN \"unterminated\r\na2 FETCH 0:-1 (BODY[])\r\na3 FETCH 4294967296 x\r\n",
		"garbage\r\n\r\n \r\n* BAD\r\na1\r\na2 FROBNICATE\r\n",
		"a1 LOGIN fz@mail.test pw123456\r\na2 SELECT Junk\r\na3 FETCH 1:999999999 (BODY[])",
		"",
		"\x00\xff\r\n\n\r",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		b := newMemBackend()
		b.password["fz@mail.test"] = "pw123456"
		b.boxes["fz@mail.test"] = []Message{
			{From: "a@x.test", Subject: "One", Body: "first"},
			{From: "b@x.test", Subject: "Two", Body: ".dot\r\nsecond"},
		}
		p := memconn.NewPair()
		p.Client().Write(in)
		p.Client().(*memconn.End).CloseWrite()
		done := make(chan struct{})
		go func() { defer close(done); NewServer(b).ServeConn(p.Server(), netip.Addr{}) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("session still running 10s after its input ended: %q", in)
		}
	})
}
