package mailserv

import (
	"testing"
	"time"

	"tripwire/internal/memconn"
)

// FuzzSMTPServeConn feeds arbitrary client bytes to one SMTP server session
// over a memconn pair whose client half-closes after writing them. Whatever
// the bytes, the session must return once they are drained, without a
// panic. The f.Add seeds are the committed regression corpus: plain
// `go test` runs them.
func FuzzSMTPServeConn(f *testing.F) {
	for _, seed := range []string{
		"EHLO fz.test\r\nMAIL FROM:<noreply@site.test>\r\nRCPT TO:<gem@relay.test>\r\nDATA\r\nSubject: Please verify\r\n\r\nhttp://x.test/verify?token=zz\r\n..leading dot\r\n.\r\nQUIT\r\n",
		"HELO fz.test\r\nMAIL FROM:<a@b.test>\r\nRCPT TO:<c@d.test>\r\nRCPT TO:<e@f.test>\r\nDATA\r\nno headers at all\r\n.\r\nRSET\r\nNOOP\r\n",
		"RCPT TO:<x@y.test>\r\nDATA\r\nMAIL FROM:\r\nMAIL FROM:<\r\nRCPT TO:<>\r\nRCPT\r\n",
		"MAIL FROM:<a@b.test>\r\nRCPT TO:<c@d.test>\r\nDATA\r\nSubject: cut off mid-message\r\n",
		"MAIL FROM:<a@b.test>\r\nRCPT TO:<c@d.test>\r\nDATA\r\nSubject: x\r\n\r\n.\r\nDATA\r\n.\r\n",
		"FROB\r\n\r\n \r\nquit\r\nQUIT",
		"",
		"\x00\xff\r\n\n\r",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		p := memconn.NewPair()
		p.Client().Write(in)
		p.Client().(*memconn.End).CloseWrite()
		done := make(chan struct{})
		go func() { defer close(done); NewSMTPServer(NewServer()).ServeConn(p.Server()) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("session still running 10s after its input ended: %q", in)
		}
	})
}
