// Package memconn provides a reusable in-memory duplex net.Conn pair.
//
// It exists for the credential-stuffing hot path: every simulated IMAP/POP3
// login used to dial a fresh net.Pipe, whose synchronous rendezvous and
// per-conn deadline machinery allocate on every session. A Pair is two
// buffered byte streams with a mutex/cond each; Reset rewinds both ends so
// one Pair serves tens of thousands of sequential sessions without
// reallocating.
//
// Semantics differ from net.Pipe in one deliberate way: writes are
// buffered (never block waiting for a reader), and a reader keeps draining
// buffered bytes after the peer closes, hitting io.EOF only when the
// stream is empty. That matches TCP shutdown semantics, which is what the
// protocol code written against real conns expects.
package memconn

import (
	"io"
	"net"
	"sync"
	"time"
)

// addr is the static address both ends report.
type addr struct{}

func (addr) Network() string { return "mem" }
func (addr) String() string  { return "mem" }

// stream is one direction of the pair: an append buffer with a read
// cursor, guarded by a mutex, with a cond for blocked readers.
type stream struct {
	mu      sync.Mutex
	cond    sync.Cond
	buf     []byte
	r       int
	wclosed bool // write end closed: drain, then EOF
	rclosed bool // read end closed: reads and peer writes fail
}

func (s *stream) init() { s.cond.L = &s.mu }

func (s *stream) read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.rclosed {
			return 0, io.ErrClosedPipe
		}
		if s.r < len(s.buf) {
			n := copy(p, s.buf[s.r:])
			s.r += n
			if s.r == len(s.buf) {
				s.buf = s.buf[:0]
				s.r = 0
			}
			return n, nil
		}
		if s.wclosed {
			return 0, io.EOF
		}
		s.cond.Wait()
	}
}

func (s *stream) write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wclosed || s.rclosed {
		return 0, io.ErrClosedPipe
	}
	s.buf = append(s.buf, p...)
	s.cond.Broadcast()
	return len(p), nil
}

func (s *stream) closeWrite() {
	s.mu.Lock()
	s.wclosed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *stream) closeRead() {
	s.mu.Lock()
	s.rclosed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// reset rewinds the stream for reuse. The caller must guarantee no
// goroutine is still using either end (the Pair contract).
func (s *stream) reset() {
	s.mu.Lock()
	s.buf = s.buf[:0]
	s.r = 0
	s.wclosed = false
	s.rclosed = false
	s.mu.Unlock()
}

// Pair is a connected in-memory duplex conn pair. The zero value is not
// usable; construct with NewPair. A Pair may be Reset and reused once both
// sides are done with the previous session.
type Pair struct {
	ab, ba stream // client→server, server→client
	client End
	server End
}

// NewPair returns a connected pair.
func NewPair() *Pair {
	p := &Pair{}
	p.ab.init()
	p.ba.init()
	p.client = End{read: &p.ba, write: &p.ab}
	p.server = End{read: &p.ab, write: &p.ba}
	return p
}

// Client returns the client-side conn.
func (p *Pair) Client() net.Conn { return &p.client }

// Server returns the server-side conn.
func (p *Pair) Server() net.Conn { return &p.server }

// Reset rewinds both directions so the pair can carry a fresh session.
// Callers must have joined whatever goroutines used the previous session.
func (p *Pair) Reset() {
	p.ab.reset()
	p.ba.reset()
}

// End is one side of a Pair. It satisfies net.Conn; deadlines are
// accepted and ignored (virtual-time simulations have no wall-clock I/O
// timeouts).
type End struct {
	read, write *stream
}

// Read implements net.Conn.
func (e *End) Read(p []byte) (int, error) { return e.read.read(p) }

// Write implements net.Conn.
func (e *End) Write(p []byte) (int, error) { return e.write.write(p) }

// Close shuts this end: its pending reads fail, and the peer drains
// whatever was already written before seeing io.EOF. Idempotent.
func (e *End) Close() error {
	e.read.closeRead()
	e.write.closeWrite()
	return nil
}

// CloseWrite half-closes this end, as in TCP: the peer drains what was
// written, then reads io.EOF, and may still write back.
func (e *End) CloseWrite() error { e.write.closeWrite(); return nil }

// LocalAddr implements net.Conn.
func (e *End) LocalAddr() net.Addr { return addr{} }

// RemoteAddr implements net.Conn.
func (e *End) RemoteAddr() net.Addr { return addr{} }

// SetDeadline implements net.Conn as a no-op.
func (e *End) SetDeadline(time.Time) error { return nil }

// SetReadDeadline implements net.Conn as a no-op.
func (e *End) SetReadDeadline(time.Time) error { return nil }

// SetWriteDeadline implements net.Conn as a no-op.
func (e *End) SetWriteDeadline(time.Time) error { return nil }
