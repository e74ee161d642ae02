package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Wire format: every frame is [u32 LE length][u8 kind][payload], where
// length counts the kind byte plus the payload. The transport never
// inspects data payloads; control payloads are the engine's barrier
// blocks and the hello payload authenticates the mesh.
const (
	kindHello byte = 1
	kindCtrl  byte = 2
	kindData  byte = 3

	// maxFrame bounds a single frame (1 GiB): a worker-pair outbox past
	// this is a protocol error, not something to silently truncate.
	maxFrame = 1 << 30

	helloMagic = "DVSHRD1\x00"
)

// SocketConfig configures one shard's endpoint of a socket mesh.
type SocketConfig struct {
	// Shard and Count identify this endpoint: shards are numbered
	// [0, Count); shard i listens on Addrs[i] and dials every lower
	//-numbered shard.
	Shard, Count int
	// Addrs holds one address per shard: "unix:PATH" (or a bare path
	// containing a '/') or "tcp:HOST:PORT".
	Addrs []string
	// Fingerprint guards against mismatched runs: the hello exchange
	// rejects a peer whose fingerprint differs (callers pass the graph
	// fingerprint, or a hash of graph + run configuration).
	Fingerprint uint64
	// Timeout bounds mesh establishment (listen + dial + hello for
	// every pair). Zero means 30s.
	Timeout time.Duration
}

// Socket is a full-mesh Transport over unix or TCP sockets. One
// background goroutine per peer reads inbound frames into a per-peer
// FIFO queue; Barrier releases everything queued before the peer's
// control frame, so writers never block on readers and the engine's
// single-threaded Send/Barrier calls need no locking of their own.
type Socket struct {
	cfg   SocketConfig
	conns []*peerConn // indexed by shard; nil at the local index
	ln    net.Listener

	ctrls [][]byte // Barrier result, reused across calls
	ready [][]byte // data frames released by the last Barrier
	rpos  int

	closed atomic.Bool

	framesOut, bytesOut atomic.Int64
	framesIn, bytesIn   atomic.Int64
}

type peerConn struct {
	shard int
	c     net.Conn
	bw    *bufio.Writer

	mu    sync.Mutex
	cond  *sync.Cond
	queue []wireEntry
	err   error
}

type wireEntry struct {
	kind    byte
	payload []byte
}

// splitAddr parses a shard address into a net network/address pair.
func splitAddr(a string) (network, addr string, err error) {
	switch {
	case strings.HasPrefix(a, "tcp:"):
		return "tcp", strings.TrimPrefix(a, "tcp:"), nil
	case strings.HasPrefix(a, "unix:"):
		return "unix", strings.TrimPrefix(a, "unix:"), nil
	case strings.Contains(a, "/"):
		return "unix", a, nil
	}
	return "", "", fmt.Errorf("transport: address %q: want unix:PATH, a /path, or tcp:HOST:PORT", a)
}

// DialMesh establishes the full mesh for one shard and blocks until
// every pair is connected and hello-validated: this shard listens on
// its own address, accepts from every higher-numbered shard, and dials
// every lower-numbered one (retrying until the peer's listener is up
// or the timeout expires). Safe to call in any start order.
func DialMesh(cfg SocketConfig) (*Socket, error) {
	if cfg.Count < 1 || cfg.Shard < 0 || cfg.Shard >= cfg.Count {
		return nil, fmt.Errorf("transport: bad shard %d of %d", cfg.Shard, cfg.Count)
	}
	if len(cfg.Addrs) != cfg.Count {
		return nil, fmt.Errorf("transport: %d addrs for %d shards", len(cfg.Addrs), cfg.Count)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	s := &Socket{cfg: cfg, conns: make([]*peerConn, cfg.Count), ctrls: make([][]byte, cfg.Count)}
	if cfg.Count == 1 {
		return s, nil // degenerate mesh: no peers, Barrier echoes the local payload
	}
	deadline := time.Now().Add(cfg.Timeout) //lint:allow timenow — mesh setup timeout, not fold input

	network, addr, err := splitAddr(cfg.Addrs[cfg.Shard])
	if err != nil {
		return nil, err
	}
	if network == "unix" {
		_ = os.Remove(addr) // clear a stale socket file from a crashed run
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("transport: shard %d listen %s: %w", cfg.Shard, cfg.Addrs[cfg.Shard], err)
	}
	s.ln = ln

	errc := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)

	// Accept from every higher-numbered shard.
	go func() {
		defer wg.Done()
		for need := cfg.Count - 1 - cfg.Shard; need > 0; need-- {
			if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
				_ = d.SetDeadline(deadline)
			}
			c, err := ln.Accept()
			if err != nil {
				errc <- fmt.Errorf("transport: shard %d accept: %w", cfg.Shard, err)
				return
			}
			peer, err := s.handshake(c, deadline, false)
			if err != nil {
				c.Close()
				errc <- err
				return
			}
			if peer <= cfg.Shard || peer >= cfg.Count || s.conns[peer] != nil {
				c.Close()
				errc <- fmt.Errorf("transport: shard %d: unexpected or duplicate hello from shard %d", cfg.Shard, peer)
				return
			}
			s.register(peer, c)
		}
	}()

	// Dial every lower-numbered shard, retrying while its listener comes up.
	go func() {
		defer wg.Done()
		for peer := 0; peer < cfg.Shard; peer++ {
			pnet, paddr, err := splitAddr(cfg.Addrs[peer])
			if err != nil {
				errc <- err
				return
			}
			var c net.Conn
			for attempt := 0; ; attempt++ {
				c, err = net.DialTimeout(pnet, paddr, 250*time.Millisecond)
				if err == nil {
					break
				}
				if !time.Now().Before(deadline) { //lint:allow timenow — mesh setup timeout
					errc <- fmt.Errorf("transport: shard %d dial shard %d (%s): %w", cfg.Shard, peer, cfg.Addrs[peer], err)
					return
				}
				time.Sleep(dialRetryDelay(attempt))
			}
			got, err := s.handshake(c, deadline, true)
			if err != nil {
				c.Close()
				errc <- err
				return
			}
			if got != peer {
				c.Close()
				errc <- fmt.Errorf("transport: dialed %s expecting shard %d, got %d", cfg.Addrs[peer], peer, got)
				return
			}
			s.register(peer, c)
		}
	}()

	wg.Wait()
	select {
	case err := <-errc:
		s.Close()
		return nil, err
	default:
	}
	for i, p := range s.conns {
		if i != cfg.Shard && p == nil {
			s.Close()
			return nil, fmt.Errorf("transport: shard %d: mesh incomplete (no conn to shard %d)", cfg.Shard, i)
		}
	}
	for _, p := range s.conns {
		if p != nil {
			go s.reader(p)
		}
	}
	return s, nil
}

// dialRetryDelay is how long a dialer waits after its attempt-th failed
// dial (from 0) before the next: 1 ms, doubling up to 50 ms, so a peer
// whose listener comes up a moment late costs about that moment, and one
// that is slow to start costs at most 20 dials a second.
func dialRetryDelay(attempt int) time.Duration {
	return min(time.Millisecond<<min(attempt, 6), 50*time.Millisecond)
}

// handshake exchanges hello frames on a fresh conn. The dialer speaks
// first; both directions validate magic, count, and fingerprint. The
// listener answers even a hello it refuses, so the dialer names the
// mismatch too instead of reading EOF. Returns the peer's shard index.
func (s *Socket) handshake(c net.Conn, deadline time.Time, dialer bool) (int, error) {
	_ = c.SetDeadline(deadline)
	defer c.SetDeadline(time.Time{})
	hello := make([]byte, 0, len(helloMagic)+16)
	hello = append(hello, helloMagic...)
	hello = binary.LittleEndian.AppendUint32(hello, uint32(s.cfg.Shard))
	hello = binary.LittleEndian.AppendUint32(hello, uint32(s.cfg.Count))
	hello = binary.LittleEndian.AppendUint64(hello, s.cfg.Fingerprint)
	send := func() error { return writeRawFrame(c, kindHello, hello) }
	recv := func() (int, error) {
		kind, payload, err := readRawFrame(c, len(hello))
		if err != nil {
			return 0, fmt.Errorf("transport: hello read: %w", err)
		}
		if kind != kindHello || len(payload) != len(hello) || string(payload[:len(helloMagic)]) != helloMagic {
			return 0, errors.New("transport: peer sent malformed hello")
		}
		peer := int(binary.LittleEndian.Uint32(payload[len(helloMagic):]))
		count := int(binary.LittleEndian.Uint32(payload[len(helloMagic)+4:]))
		fp := binary.LittleEndian.Uint64(payload[len(helloMagic)+8:])
		if count != s.cfg.Count {
			return 0, fmt.Errorf("transport: peer shard %d runs a %d-shard mesh, this is %d", peer, count, s.cfg.Count)
		}
		if fp != s.cfg.Fingerprint {
			return 0, fmt.Errorf("transport: peer shard %d fingerprint %016x != local %016x (different graph or run config)", peer, fp, s.cfg.Fingerprint)
		}
		return peer, nil
	}
	if dialer {
		if err := send(); err != nil {
			return 0, err
		}
		return recv()
	}
	peer, err := recv()
	if serr := send(); err == nil {
		err = serr
	}
	return peer, err
}

func (s *Socket) register(shard int, c net.Conn) {
	p := &peerConn{shard: shard, c: c, bw: bufio.NewWriterSize(c, 1<<16)}
	p.cond = sync.NewCond(&p.mu)
	s.conns[shard] = p
}

// reader drains one peer connection into its FIFO queue. A read error
// (including Close) is recorded and woken through the condvar so a
// Barrier blocked on this peer fails instead of hanging.
func (s *Socket) reader(p *peerConn) {
	br := bufio.NewReaderSize(p.c, 1<<16)
	for {
		kind, payload, err := readRawFrame(br, maxFrame)
		if err != nil {
			p.mu.Lock()
			if p.err == nil {
				if s.closed.Load() {
					p.err = net.ErrClosed
				} else {
					p.err = fmt.Errorf("transport: read from shard %d: %w", p.shard, err)
				}
			}
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		s.framesIn.Add(1)
		s.bytesIn.Add(int64(5 + len(payload)))
		p.mu.Lock()
		p.queue = append(p.queue, wireEntry{kind, payload})
		p.cond.Signal()
		p.mu.Unlock()
	}
}

// Send implements Transport: one buffered data frame to shard dst.
// The write lands on the wire no later than the next Barrier's flush.
func (s *Socket) Send(dst int, frame []byte) error {
	if dst < 0 || dst >= len(s.conns) || s.conns[dst] == nil {
		return fmt.Errorf("transport: Send to shard %d of %d", dst, s.cfg.Count)
	}
	p := s.conns[dst]
	if err := writeBufFrame(p.bw, kindData, frame); err != nil {
		return fmt.Errorf("transport: send to shard %d: %w", dst, err)
	}
	s.framesOut.Add(1)
	s.bytesOut.Add(int64(5 + len(frame)))
	return nil
}

// Recv implements Transport.
func (s *Socket) Recv() ([]byte, error) {
	if s.rpos >= len(s.ready) {
		return nil, nil
	}
	f := s.ready[s.rpos]
	s.rpos++
	return f, nil
}

// Barrier implements Transport: write + flush the control frame to
// every peer, then collect each peer's queue up to its control frame.
func (s *Socket) Barrier(ctrl []byte) ([][]byte, error) {
	s.ready = s.ready[:0]
	s.rpos = 0
	s.ctrls[s.cfg.Shard] = ctrl
	for _, p := range s.conns {
		if p == nil {
			continue
		}
		if err := writeBufFrame(p.bw, kindCtrl, ctrl); err != nil {
			return nil, fmt.Errorf("transport: barrier write to shard %d: %w", p.shard, err)
		}
		if err := p.bw.Flush(); err != nil {
			return nil, fmt.Errorf("transport: barrier flush to shard %d: %w", p.shard, err)
		}
		s.framesOut.Add(1)
		s.bytesOut.Add(int64(5 + len(ctrl)))
	}
	for _, p := range s.conns {
		if p == nil {
			continue
		}
		if err := s.collect(p); err != nil {
			return nil, err
		}
	}
	return s.ctrls, nil
}

// collect waits for p's control frame and releases everything queued
// before it: data frames in arrival order into ready, the control
// payload into ctrls.
func (s *Socket) collect(p *peerConn) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for i, e := range p.queue {
			if e.kind != kindCtrl {
				continue
			}
			for _, d := range p.queue[:i] {
				if d.kind == kindData {
					s.ready = append(s.ready, d.payload)
				}
			}
			s.ctrls[p.shard] = e.payload
			p.queue = append(p.queue[:0], p.queue[i+1:]...)
			return nil
		}
		if p.err != nil {
			return fmt.Errorf("transport: barrier with shard %d: %w", p.shard, p.err)
		}
		p.cond.Wait()
	}
}

// Close implements Transport.
func (s *Socket) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for _, p := range s.conns {
		if p != nil {
			_ = p.c.Close()
		}
	}
	return nil
}

// Counters reports cumulative wire traffic: frames and bytes written
// (data + control) and read. Hello frames are not counted.
func (s *Socket) Counters() (framesOut, bytesOut, framesIn, bytesIn int64) {
	return s.framesOut.Load(), s.bytesOut.Load(), s.framesIn.Load(), s.bytesIn.Load()
}

func writeBufFrame(bw *bufio.Writer, kind byte, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds the %d limit", len(payload), maxFrame)
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = kind
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	_, err := bw.Write(payload)
	return err
}

func writeRawFrame(w io.Writer, kind byte, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = kind
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readRawFrame reads one frame from r. The hello handshake passes the
// bare conn — it MUST NOT read buffered, or read-ahead would swallow
// the first bytes of the frame stream the per-peer reader takes over.
func readRawFrame(r io.Reader, limit int) (byte, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if n < 1 || n > limit+1 {
		return 0, nil, fmt.Errorf("transport: frame length %d out of range", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}
