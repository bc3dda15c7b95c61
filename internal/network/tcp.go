package network

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPFabric implements Fabric over real loopback TCP sockets, validating
// that the parcel subsystem works over a genuine byte-stream transport
// (HPX's TCP parcelport analog). Messages are framed as a fixed header —
// uint32 source locality, uint32 payload length — followed by the payload.
//
// TCPFabric applies no cost model; per-message overhead is whatever the
// kernel socket path genuinely costs.
type TCPFabric struct {
	n         int
	listeners []net.Listener
	handlers  []atomic.Pointer[Handler]

	// mu guards the two maps and nothing else: no socket call is made
	// under it, so a slow link cannot stall the others or the accept
	// loops, which need it to register a connection before reading it.
	mu       sync.Mutex
	conns    map[linkKey]*tcpConn
	accepted map[net.Conn]struct{}
	closed   atomic.Bool
	wg       sync.WaitGroup
	fault    atomic.Pointer[FaultHook]

	msgs    atomic.Uint64
	bytes   atomic.Uint64
	msgsIn  atomic.Uint64
	bytesIn atomic.Uint64
	drops   atomic.Uint64
	dupes   atomic.Uint64
	delays  atomic.Uint64
}

// tcpConn is one cached outbound connection. wmu serializes whole frames
// on it, so concurrent senders on a link never interleave framing, and
// guards the frame scratch below.
type tcpConn struct {
	net.Conn
	wmu sync.Mutex
	wf  frameWriter
}

// frameWriter is the scratch for writing one framed message as a single
// writev. (*net.Buffers).WriteTo makes its receiver and everything it
// points at escape, so a header array, slice pair and net.Buffers value
// built per call are three heap allocations per frame; kept beside the
// connection, under the lock that already serializes its writes, they are
// none.
type frameWriter struct {
	hdr  [8]byte
	vec  [2][]byte
	bufs net.Buffers
}

// write sends the 8-byte header (source locality, payload length) and the
// payload on conn. The caller holds the lock that serializes writes on
// conn.
func (w *frameWriter) write(conn net.Conn, src int, payload []byte) error {
	binary.LittleEndian.PutUint32(w.hdr[0:4], uint32(src))
	binary.LittleEndian.PutUint32(w.hdr[4:8], uint32(len(payload)))
	w.vec = [2][]byte{w.hdr[:], payload}
	w.bufs = w.vec[:] // WriteTo consumes bufs; vec keeps the backing array
	_, err := w.bufs.WriteTo(conn)
	w.vec[1] = nil // the payload goes back to its pool; keep no reference
	return err
}

// NewTCPFabric creates a TCP fabric connecting n localities, each
// listening on an ephemeral 127.0.0.1 port. Connections between pairs are
// established lazily on first send.
func NewTCPFabric(n int) (*TCPFabric, error) {
	f := &TCPFabric{
		n:         n,
		listeners: make([]net.Listener, n),
		handlers:  make([]atomic.Pointer[Handler], n),
		conns:     make(map[linkKey]*tcpConn),
		accepted:  make(map[net.Conn]struct{}),
	}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("network: listen for locality %d: %w", i, err)
		}
		f.listeners[i] = l
		f.wg.Add(1)
		go f.accept(i, l)
	}
	return f, nil
}

func (f *TCPFabric) accept(dst int, l net.Listener) {
	defer f.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		// Accepted connections are tracked so Close can tear them down:
		// the remote end of an accepted conn belongs to the dialer, and a
		// dialer that never closes (or lives in another process) would
		// otherwise leave the readLoop parked in ReadFull forever and hang
		// Close's wg.Wait.
		f.mu.Lock()
		if f.closed.Load() {
			f.mu.Unlock()
			_ = conn.Close()
			return
		}
		f.accepted[conn] = struct{}{}
		f.mu.Unlock()
		f.wg.Add(1)
		go f.readLoop(dst, conn)
	}
}

// tcpReadBufferSize sizes the per-connection read buffer. Coalesced
// messages are tens of kilobytes at most, so a 256 KiB buffer lets one
// read syscall drain many queued frames under load — the receive-side
// mirror of Send's vectored (writev) framing.
const tcpReadBufferSize = 256 << 10

func (f *TCPFabric) readLoop(dst int, conn net.Conn) {
	defer f.wg.Done()
	defer func() {
		_ = conn.Close()
		f.mu.Lock()
		delete(f.accepted, conn)
		f.mu.Unlock()
	}()
	// Batched socket reads: the buffered reader turns per-frame ReadFull
	// pairs into large socket reads, so a burst of small frames costs one
	// syscall instead of two per frame. Framing is unchanged — only where
	// the bytes wait differs.
	br := bufio.NewReaderSize(conn, tcpReadBufferSize)
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		src := binary.LittleEndian.Uint32(hdr[0:4])
		n := binary.LittleEndian.Uint32(hdr[4:8])
		// Pooled receive buffer: the handler owns it and recycles it via
		// PutPayload after decoding.
		payload := GetPayload(int(n))
		if _, err := io.ReadFull(br, payload); err != nil {
			PutPayload(payload)
			return
		}
		if f.closed.Load() {
			PutPayload(payload)
			return
		}
		if hp := f.handlers[dst].Load(); hp != nil {
			f.msgsIn.Add(1)
			f.bytesIn.Add(uint64(len(payload)))
			(*hp)(int(src), payload)
		} else {
			PutPayload(payload)
		}
	}
}

// Localities implements Fabric.
func (f *TCPFabric) Localities() int { return f.n }

// Model implements Fabric; real sockets have no synthetic model.
func (f *TCPFabric) Model() CostModel { return CostModel{} }

// SetHandler implements Fabric.
func (f *TCPFabric) SetHandler(dst int, h Handler) {
	if dst < 0 || dst >= f.n {
		panic(fmt.Sprintf("network: SetHandler(%d) out of range", dst))
	}
	f.handlers[dst].Store(&h)
}

// Stats implements Fabric.
func (f *TCPFabric) Stats() Stats {
	return Stats{
		MessagesSent:     f.msgs.Load(),
		BytesSent:        f.bytes.Load(),
		MessagesReceived: f.msgsIn.Load(),
		BytesReceived:    f.bytesIn.Load(),
		Dropped:          f.drops.Load(),
		Duplicated:       f.dupes.Load(),
		Delayed:          f.delays.Load(),
	}
}

// SetFaultHook installs (or, with nil, removes) a fault-injection hook,
// mirroring SimFabric.SetFaultHook. Drops skip the socket write entirely;
// duplicates write the frame twice; FaultDelay (and FaultReorder, which a
// byte-stream transport can only express as a delay — later frames
// overtake the delayed one) writes the frame from a timer goroutine after
// the extra latency.
func (f *TCPFabric) SetFaultHook(h FaultHook) {
	if h == nil {
		f.fault.Store(nil)
		return
	}
	f.fault.Store(&h)
}

// Send implements Fabric. Writes on a given (src,dst) pair are serialized
// by the connection's write mutex, so framing is never interleaved. A
// dial or write error evicts the cached connection (closing it) so the next Send
// redials instead of failing forever on a dead socket; the message itself
// is reported lost to the caller, which retains payload ownership —
// redelivery is the reliability layer's job.
func (f *TCPFabric) Send(src, dst int, payload []byte) error {
	if f.closed.Load() {
		return ErrClosed
	}
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n {
		return fmt.Errorf("%w: src=%d dst=%d n=%d", ErrBadLocality, src, dst, f.n)
	}

	duplicate := false
	if hook := f.fault.Load(); hook != nil {
		fault := (*hook)(src, dst, payload)
		switch fault.Action {
		case FaultDrop:
			f.drops.Add(1)
			PutPayload(payload)
			return nil
		case FaultDuplicate:
			f.dupes.Add(1)
			duplicate = true
		case FaultDelay, FaultReorder:
			f.delays.Add(1)
			delay := fault.Delay
			if delay <= 0 {
				delay = DefaultFaultDelay
			}
			// The timer goroutine is not tracked by f.wg: firing after
			// Close just recycles the payload, so Close need not wait.
			time.AfterFunc(delay, func() {
				if f.closed.Load() {
					PutPayload(payload)
					return
				}
				// Best effort: a late write on a dead connection is just
				// another injected loss.
				if err := f.writeFrame(src, dst, payload); err == nil {
					f.msgs.Add(1)
					f.bytes.Add(uint64(len(payload)))
				}
				PutPayload(payload)
			})
			return nil
		}
	}

	if err := f.writeFrame(src, dst, payload); err != nil {
		return err
	}
	if duplicate {
		_ = f.writeFrame(src, dst, payload)
	}
	// The socket write copied the bytes; this transport is done with the
	// caller's buffer, so recycle it on its behalf (Send owns it).
	PutPayload(payload)
	f.msgs.Add(1)
	f.bytes.Add(uint64(len(payload)))
	return nil
}

// writeFrame frames and writes one message on the cached (dialing if
// needed) connection for the link. On a write error the connection is
// closed and evicted from the cache so the next attempt redials.
func (f *TCPFabric) writeFrame(src, dst int, payload []byte) error {
	conn, err := f.getConn(src, dst)
	if err != nil {
		return err
	}
	// Header and payload go out as one writev (net.Buffers) on the TCP
	// connection: a single syscall per message with no copy of the
	// payload into a combined frame buffer. The write may block on a full
	// socket, so only this connection's mutex is held across it.
	conn.wmu.Lock()
	err = conn.wf.write(conn.Conn, src, payload)
	conn.wmu.Unlock()
	if err != nil {
		// Evict the broken connection (only if it is still the cached
		// one — a concurrent sender may have already redialed).
		key := linkKey{src, dst}
		f.mu.Lock()
		if f.conns[key] == conn {
			delete(f.conns, key)
		}
		f.mu.Unlock()
		_ = conn.Close()
		return fmt.Errorf("network: tcp send %d->%d: %w", src, dst, err)
	}
	return nil
}

// getConn returns the cached connection for the link, dialing outside
// the fabric mutex when there is none. Two senders that dial the same
// link at once both succeed; the second to finish closes its connection
// and uses the cached one.
func (f *TCPFabric) getConn(src, dst int) (*tcpConn, error) {
	key := linkKey{src, dst}
	f.mu.Lock()
	c, ok := f.conns[key]
	f.mu.Unlock()
	if ok {
		return c, nil
	}
	if f.closed.Load() {
		return nil, ErrClosed
	}
	nc, err := net.Dial("tcp", f.listeners[dst].Addr().String())
	if err != nil {
		// Typed so layers above can classify a dead or not-yet-listening
		// peer (transient, retryable) without string matching. No stale
		// slot is left behind: the cache is only populated on success.
		return nil, fmt.Errorf("%w: dial %d->%d: %v", ErrPeerUnreachable, src, dst, err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Load() {
		// Close may already have swept the map; a connection cached now
		// would never be closed.
		_ = nc.Close()
		return nil, ErrClosed
	}
	if c, ok := f.conns[key]; ok {
		_ = nc.Close()
		return c, nil
	}
	c = &tcpConn{Conn: nc}
	f.conns[key] = c
	return c, nil
}

// Close implements Fabric, closing all listeners and connections and
// waiting for reader goroutines to exit.
func (f *TCPFabric) Close() error {
	if f.closed.Swap(true) {
		return nil
	}
	f.mu.Lock()
	for _, c := range f.conns {
		_ = c.Close()
	}
	for c := range f.accepted {
		_ = c.Close()
	}
	f.mu.Unlock()
	for _, l := range f.listeners {
		if l != nil {
			_ = l.Close()
		}
	}
	f.wg.Wait()
	return nil
}
