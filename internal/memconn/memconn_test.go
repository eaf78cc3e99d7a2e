package memconn

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestPingPong(t *testing.T) {
	p := NewPair()
	c, s := p.Client(), p.Server()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 16)
		n, err := s.Read(buf)
		if err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		if _, err := s.Write(bytes.ToUpper(buf[:n])); err != nil {
			t.Errorf("server write: %v", err)
		}
	}()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatalf("client write: %v", err)
	}
	buf := make([]byte, 16)
	n, err := c.Read(buf)
	if err != nil || string(buf[:n]) != "HELLO" {
		t.Fatalf("client read = %q, %v", buf[:n], err)
	}
	<-done
}

// TestDrainThenEOF pins the TCP-shutdown-like close semantics the protocol
// code relies on: bytes written before the peer closed stay readable, and
// only then does the reader see io.EOF.
func TestDrainThenEOF(t *testing.T) {
	p := NewPair()
	c, s := p.Client(), p.Server()
	if _, err := s.Write([]byte("bye")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	buf := make([]byte, 2)
	var got []byte
	for {
		n, err := c.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	if string(got) != "bye" {
		t.Fatalf("drained %q, want %q", got, "bye")
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write to closed peer: %v, want ErrClosedPipe", err)
	}
}

// TestCloseWriteHalfCloses pins the half-close the protocol fuzz targets
// feed servers with: the peer drains the bytes, then reads io.EOF, and
// can still write back to the half-closed end.
func TestCloseWriteHalfCloses(t *testing.T) {
	p := NewPair()
	c, s := p.Client(), p.Server()
	if _, err := c.Write([]byte("cmd")); err != nil {
		t.Fatal(err)
	}
	c.(*End).CloseWrite()
	got, err := io.ReadAll(s)
	if err != nil || string(got) != "cmd" {
		t.Fatalf("server drained %q, %v; want %q then EOF", got, err, "cmd")
	}
	if _, err := s.Write([]byte("ok")); err != nil {
		t.Fatalf("reply to half-closed client: %v", err)
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write after CloseWrite: %v, want ErrClosedPipe", err)
	}
	buf := make([]byte, 2)
	if n, err := c.Read(buf); err != nil || string(buf[:n]) != "ok" {
		t.Fatalf("client read = %q, %v", buf[:n], err)
	}
}

func TestCloseUnblocksReader(t *testing.T) {
	p := NewPair()
	c := p.Client()
	errc := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		errc <- err
	}()
	c.Close()
	if err := <-errc; !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("read after own close: %v, want ErrClosedPipe", err)
	}
}

// TestResetReuse cycles one pair through many sessions, the stuffing
// bot-pool usage pattern: session, both ends closed, Reset, repeat.
func TestResetReuse(t *testing.T) {
	p := NewPair()
	for i := 0; i < 100; i++ {
		c, s := p.Client(), p.Server()
		done := make(chan struct{})
		go func() {
			defer close(done)
			buf := make([]byte, 8)
			n, _ := s.Read(buf)
			s.Write(buf[:n])
			s.Close()
		}()
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Fatalf("session %d write: %v", i, err)
		}
		buf := make([]byte, 8)
		n, err := c.Read(buf)
		if err != nil || string(buf[:n]) != "ping" {
			t.Fatalf("session %d read = %q, %v", i, buf[:n], err)
		}
		c.Close()
		<-done
		p.Reset()
	}
}
