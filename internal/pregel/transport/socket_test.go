package transport

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func netListenTCP() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// unixAddrs returns one unix-socket address per shard under a temp dir.
func unixAddrs(t *testing.T, count int) []string {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, count)
	for i := range addrs {
		addrs[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("s%d.sock", i))
	}
	return addrs
}

// dialAll establishes a full mesh of count shards concurrently and
// returns the transports indexed by shard. Shards start from the highest,
// a few milliseconds apart, so each shard's dials to lower shards mostly
// find no listener yet and take the retry path.
func dialAll(t *testing.T, count int, addrs []string, fp uint64) []*Socket {
	t.Helper()
	socks := make([]*Socket, count)
	errs := make([]error, count)
	var wg sync.WaitGroup
	for i := count - 1; i >= 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			socks[i], errs[i] = DialMesh(SocketConfig{
				Shard: i, Count: count, Addrs: addrs,
				Fingerprint: fp, Timeout: 10 * time.Second,
			})
		}(i)
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: DialMesh: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, s := range socks {
			s.Close()
		}
	})
	return socks
}

// TestDialRetryDelay pins the dialer's retry schedule: it starts at 1 ms
// and doubles up to 50 ms, where it stays.
func TestDialRetryDelay(t *testing.T) {
	want := []time.Duration{1, 2, 4, 8, 16, 32, 50, 50, 50}
	for attempt, ms := range want {
		if got := dialRetryDelay(attempt); got != ms*time.Millisecond {
			t.Errorf("dialRetryDelay(%d) = %v, want %v", attempt, got, ms*time.Millisecond)
		}
	}
	if got := dialRetryDelay(1 << 20); got != 50*time.Millisecond {
		t.Errorf("dialRetryDelay(1<<20) = %v, want 50ms", got)
	}
}

// TestSocketMeshBarrier drives a 3-shard mesh through several
// supersteps: every shard sends a distinct data frame to every peer,
// then barriers with its own control payload. Each shard must observe
// all three control payloads and exactly the data addressed to it, in
// per-peer FIFO order, released only by the barrier.
func TestSocketMeshBarrier(t *testing.T) {
	const count = 3
	socks := dialAll(t, count, unixAddrs(t, count), 0xfeed)

	var wg sync.WaitGroup
	fail := make(chan error, count)
	for i := 0; i < count; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := socks[i]
			for step := 0; step < 5; step++ {
				// Before any send, the interval must be drained.
				if f, err := s.Recv(); err != nil || f != nil {
					fail <- fmt.Errorf("shard %d step %d: pre-send Recv = %v, %v", i, step, f, err)
					return
				}
				for dst := 0; dst < count; dst++ {
					if dst == i {
						continue
					}
					// Two frames per peer to exercise FIFO order.
					for k := 0; k < 2; k++ {
						frame := []byte(fmt.Sprintf("s%d>%d step%d #%d", i, dst, step, k))
						if err := s.Send(dst, frame); err != nil {
							fail <- fmt.Errorf("shard %d: Send: %v", i, err)
							return
						}
					}
				}
				ctrls, err := s.Barrier([]byte(fmt.Sprintf("ctrl s%d step%d", i, step)))
				if err != nil {
					fail <- fmt.Errorf("shard %d step %d: Barrier: %v", i, step, err)
					return
				}
				for j := 0; j < count; j++ {
					want := fmt.Sprintf("ctrl s%d step%d", j, step)
					if string(ctrls[j]) != want {
						fail <- fmt.Errorf("shard %d step %d: ctrl[%d] = %q, want %q", i, step, j, ctrls[j], want)
						return
					}
				}
				var got []string
				for {
					f, err := s.Recv()
					if err != nil {
						fail <- fmt.Errorf("shard %d: Recv: %v", i, err)
						return
					}
					if f == nil {
						break
					}
					got = append(got, string(f))
				}
				if len(got) != 2*(count-1) {
					fail <- fmt.Errorf("shard %d step %d: got %d frames, want %d (%v)", i, step, len(got), 2*(count-1), got)
					return
				}
				// Per-peer FIFO: for every src, #0 must precede #1.
				for src := 0; src < count; src++ {
					if src == i {
						continue
					}
					i0, i1 := -1, -1
					for idx, g := range got {
						if g == fmt.Sprintf("s%d>%d step%d #0", src, i, step) {
							i0 = idx
						}
						if g == fmt.Sprintf("s%d>%d step%d #1", src, i, step) {
							i1 = idx
						}
					}
					if i0 < 0 || i1 < 0 || i0 > i1 {
						fail <- fmt.Errorf("shard %d step %d: frames from %d out of order or missing: %v", i, step, src, got)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	fo, bo, fi, bi := socks[0].Counters()
	if fo == 0 || bo == 0 || fi == 0 || bi == 0 {
		t.Fatalf("counters not advancing: out %d/%d in %d/%d", fo, bo, fi, bi)
	}
}

// TestSocketLargeFrame round-trips a frame far larger than the write
// buffer, interleaved with small ones, across a 2-shard mesh.
func TestSocketLargeFrame(t *testing.T) {
	socks := dialAll(t, 2, unixAddrs(t, 2), 1)
	big := bytes.Repeat([]byte{0xAB}, 1<<20)
	big[0], big[len(big)-1] = 0x01, 0x02

	done := make(chan error, 1)
	go func() {
		s := socks[1]
		if _, err := s.Barrier(nil); err != nil {
			done <- err
			return
		}
		var frames [][]byte
		for {
			f, err := s.Recv()
			if err != nil {
				done <- err
				return
			}
			if f == nil {
				break
			}
			frames = append(frames, f)
		}
		if len(frames) != 3 || !bytes.Equal(frames[1], big) ||
			string(frames[0]) != "pre" || string(frames[2]) != "post" {
			done <- fmt.Errorf("peer got %d frames (lens %v)", len(frames), frameLens(frames))
			return
		}
		done <- nil
	}()

	s := socks[0]
	for _, f := range [][]byte{[]byte("pre"), big, []byte("post")} {
		if err := s.Send(1, f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Barrier(nil); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func frameLens(frames [][]byte) []int {
	ls := make([]int, len(frames))
	for i, f := range frames {
		ls[i] = len(f)
	}
	return ls
}

// TestSocketFingerprintMismatch: a mesh where the two endpoints loaded
// different graphs must refuse to form.
func TestSocketFingerprintMismatch(t *testing.T) {
	addrs := unixAddrs(t, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := DialMesh(SocketConfig{
				Shard: i, Count: 2, Addrs: addrs,
				Fingerprint: uint64(100 + i), Timeout: 5 * time.Second,
			})
			if s != nil {
				s.Close()
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	// The listener answers the dialer's hello before refusing it, so both
	// sides name the fingerprint.
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Fatalf("shard %d: err = %v, want a fingerprint refusal", i, err)
		}
	}
}

// TestSocketCloseUnblocksBarrier: a peer vanishing mid-barrier must
// surface an error on the survivor, not a hang.
func TestSocketCloseUnblocksBarrier(t *testing.T) {
	socks := dialAll(t, 2, unixAddrs(t, 2), 7)
	errc := make(chan error, 1)
	go func() {
		_, err := socks[1].Barrier([]byte("x"))
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	socks[0].Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Barrier returned nil error after peer closed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Barrier hung after peer closed")
	}
}

// TestSocketSingleShard: a 1-shard mesh is legal (dvrun -shard 0/1)
// and behaves like Local.
func TestSocketSingleShard(t *testing.T) {
	s, err := DialMesh(SocketConfig{Shard: 0, Count: 1, Addrs: []string{"unix:unused"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctrls, err := s.Barrier([]byte("solo"))
	if err != nil || len(ctrls) != 1 || string(ctrls[0]) != "solo" {
		t.Fatalf("Barrier = %q, %v", ctrls, err)
	}
	if f, err := s.Recv(); f != nil || err != nil {
		t.Fatalf("Recv = %v, %v", f, err)
	}
	if err := s.Send(1, nil); err == nil {
		t.Fatal("Send to a nonexistent shard succeeded")
	}
}

func TestSplitAddr(t *testing.T) {
	cases := []struct {
		in, net, addr string
		ok            bool
	}{
		{"unix:/tmp/a.sock", "unix", "/tmp/a.sock", true},
		{"/tmp/a.sock", "unix", "/tmp/a.sock", true},
		{"tcp:127.0.0.1:9000", "tcp", "127.0.0.1:9000", true},
		{"tcp:localhost:0", "tcp", "localhost:0", true},
		{"garbage", "", "", false},
	}
	for _, tc := range cases {
		n, a, err := splitAddr(tc.in)
		if tc.ok != (err == nil) || n != tc.net || a != tc.addr {
			t.Errorf("splitAddr(%q) = %q, %q, %v", tc.in, n, a, err)
		}
	}
}

// TestSocketTCP forms a 2-shard mesh over loopback TCP.
func TestSocketTCP(t *testing.T) {
	// Reserve two ports by listening and closing; a race against another
	// process is possible but vanishingly unlikely in CI.
	addrs := []string{"tcp:127.0.0.1:0", "tcp:127.0.0.1:0"}
	ports := make([]string, 2)
	for i := range ports {
		ln, err := netListenTCP()
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = ln.Addr().String()
		ln.Close()
	}
	addrs[0], addrs[1] = "tcp:"+ports[0], "tcp:"+ports[1]
	socks := dialAll(t, 2, addrs, 42)
	done := make(chan error, 1)
	go func() {
		_, err := socks[1].Barrier(nil)
		done <- err
	}()
	if err := socks[0].Send(1, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	if _, err := socks[0].Barrier(nil); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	f, err := socks[1].Recv()
	if err != nil || string(f) != "over tcp" {
		t.Fatalf("Recv = %q, %v", f, err)
	}
}
