package pop3

import (
	"net/netip"
	"testing"
	"time"

	"tripwire/internal/memconn"
)

// FuzzServeConn feeds arbitrary client bytes to one POP3 server session
// over a memconn pair whose client half-closes after writing them. Whatever
// the bytes, the session must return once they are drained, without a
// panic. The f.Add seeds are the committed regression corpus: plain
// `go test` runs them.
func FuzzServeConn(f *testing.F) {
	for _, seed := range []string{
		"USER gem@mail.test\r\nPASS Website1\r\nSTAT\r\nLIST\r\nLIST 2\r\nRETR 1\r\nRETR 2\r\nDELE 1\r\nRSET\r\nNOOP\r\nQUIT\r\n",
		"USER gem@mail.test\r\nPASS wrong\r\nSTAT\r\nRETR 1\r\n",
		"PASS Website1\r\nUSER\r\nUSER a b c\r\nPASS\r\n",
		"USER gem@mail.test\r\nPASS Website1\r\nRETR 0\r\nRETR -1\r\nRETR 3\r\nLIST 99999999999999999999\r\nRETR x\r\n",
		"user gem@mail.test\r\npass Website1\r\nretr 1\r\n",
		"FROB\r\n\r\n \r\nQUIT",
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
		go func() { defer close(done); NewServer(testBackend()).ServeConn(p.Server(), netip.Addr{}) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("session still running 10s after its input ended: %q", in)
		}
	})
}
