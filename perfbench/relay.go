package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/experiment"
)

// relay is a byte-counting TCP proxy between fabric workers and the
// coordinator. It forwards every frame unchanged — the fabric's wire
// format is a uint32 little-endian payload length followed by one JSON
// message — and logs each frame's direction, size, type, lease and the
// bytes of its shipped telemetry snapshot.
type relay struct {
	ln     net.Listener
	target string

	mu     sync.Mutex
	frames []frame
	conns  []net.Conn
	wg     sync.WaitGroup
}

// frame is one relayed fabric frame.
type frame struct {
	conn  int  // accepted-connection index, in accept order
	up    bool // worker to coordinator
	at    time.Time
	bytes int // length prefix plus payload
	typ   string
	// lease is the lease a lease frame grants or a result frame answers.
	lease experiment.Lease
	// telemetryBytes is the size of the frame's "telemetry" value.
	telemetryBytes int
	// telemetry holds that value on result frames, for the worker-side
	// execute time it reports.
	telemetry json.RawMessage
}

// startRelay listens on a free loopback port and forwards each accepted
// connection to target.
func startRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target}
	r.wg.Add(1)
	go r.serve()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

// close stops accepting, hangs up every relayed connection, and waits for
// the relay's goroutines to exit. The frame log stays readable.
func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

func (r *relay) serve() {
	defer r.wg.Done()
	for id := 0; ; id++ {
		down, err := r.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", r.target)
		if err != nil {
			down.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, down, up)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pump(id, true, down, up)
		go r.pump(id, false, up, down)
	}
}

// pump copies frames from src to dst until either side fails, then hangs
// up both so the opposite pump ends too.
func (r *relay) pump(id int, upward bool, src, dst net.Conn) {
	defer r.wg.Done()
	defer dst.Close()
	defer src.Close()
	for {
		buf, err := readFrame(src)
		if err != nil {
			return
		}
		at := time.Now()
		if _, err := dst.Write(buf); err != nil {
			return
		}
		f := parseFrame(buf[4:])
		f.conn, f.up, f.at, f.bytes = id, upward, at, len(buf)
		r.mu.Lock()
		r.frames = append(r.frames, f)
		r.mu.Unlock()
	}
}

// readFrame reads one length-prefixed frame, prefix included.
func readFrame(rd io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > 16<<20 {
		return nil, errors.New("relay: oversized frame")
	}
	buf := make([]byte, 4+n)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(rd, buf[4:]); err != nil {
		return nil, err
	}
	return buf, nil
}

// parseFrame extracts the fields the ledger counts from one payload. A
// payload that is not a fabric message still counts its bytes.
func parseFrame(payload []byte) frame {
	var m struct {
		Type   string            `json:"type"`
		Lease  *experiment.Lease `json:"lease"`
		Result *struct {
			Lease experiment.Lease `json:"lease"`
		} `json:"result"`
		Telemetry json.RawMessage `json:"telemetry"`
	}
	var f frame
	if json.Unmarshal(payload, &m) != nil {
		return f
	}
	f.typ = m.Type
	f.telemetryBytes = len(m.Telemetry)
	switch {
	case m.Lease != nil:
		f.lease = *m.Lease
	case m.Result != nil:
		f.lease = m.Result.Lease
		f.telemetry = m.Telemetry
	}
	return f
}

// log returns a copy of the frame log.
func (r *relay) log() []frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]frame(nil), r.frames...)
}
