package main

import (
	"encoding/binary"
	"fmt"

	"vmshortcut/internal/op"
	"vmshortcut/internal/wire"
	"vmshortcut/internal/workload"
)

// frameKind is the request frame shape a workload sends.
type frameKind int

const (
	frameSingleGet frameKind = iota // one GET frame per op; the server coalesces
	frameGetBatch                   // GETBATCH frames of opsPerFrame keys
	frameMixed                      // MIXEDBATCH frames of opsPerFrame GET/PUT entries
)

// spec is one benchmark workload. The open-loop rate is part of the
// benchmark's definition and stays the same across commits, so latencies
// stay comparable. It was fixed at 10–20% of the closed-loop throughput
// measured on the commit that introduced the benchmark: on a shared
// two-vCPU host the capacity halves in busy periods, and a rate near
// half of it then builds a backlog that outlasts the busy period.
type spec struct {
	name        string
	keys        int     // preloaded keys
	zipf        bool    // zipfian(0.99) key choice; uniform otherwise
	getShare    float64 // share of GET ops; the rest are updates
	frame       frameKind
	opsPerFrame int
	openFramesS float64  // open-loop rate, frames per second (both connections together)
	serverFlags []string // ehserver flags beyond -addr/-admin
	wal         bool     // the server adds -wal-dir <tmp>
}

// baseFlags is the served configuration every workload shares.
var baseFlags = []string{"-kind", "shortcut-eh", "-shards", "2"}

var specs = []spec{
	{
		name: "hot-get", keys: 1_000_000, zipf: true, getShare: 1,
		frame: frameSingleGet, opsPerFrame: 1,
		openFramesS: 200_000,
	},
	{
		name: "big-uniform-get", keys: 8_000_000, zipf: false, getShare: 1,
		frame: frameGetBatch, opsPerFrame: 64,
		openFramesS: 15_000,
	},
	{
		name: "durable-update", keys: 1_000_000, zipf: true, getShare: 0.5,
		frame: frameMixed, opsPerFrame: 32,
		openFramesS: 30_000,
		// Background fsync every 100ms: acknowledgements do not wait for
		// the disk, and the same policy runs on both sides of a compare.
		serverFlags: []string{"-fsync", "interval", "-fsync-interval", "100ms"},
		wal:         true,
	},
}

func specByName(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// flags is the full served configuration of s, for ehserver and the
// traced host alike.
func (s spec) flags() []string {
	return append(append([]string(nil), baseFlags...), s.serverFlags...)
}

// keyOf is the key of preloaded index i under seed.
func keyOf(seed, i uint64) uint64 { return workload.Key(seed, i) }

// valueOf is the value key index i holds at version ver: preloading
// writes version 0, and each update writes the next version. Distinct
// (i, ver) pairs give unrelated values, so a stale or foreign value never
// passes verification by accident.
func valueOf(seed, i uint64, ver uint32) uint64 {
	z := seed*0xD6E8FEB86659FD93 + i*0x9E3779B97F4A7C15 + uint64(ver)*0xC2B2AE3D27D4EB4F + 0x165667B19E3779F9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// expect is one op of a sent frame as the generator expects it answered:
// a GET must return want; an update must be accepted.
type expect struct {
	get  bool
	want uint64
}

// opGen draws one connection's operation stream. Connection c of a
// workload with updates owns the key indices ≡ c (mod conns), and its
// frames are answered in order, so the expected value of every GET is
// exact: only this generator ever writes the key, and the server applies
// a connection's frames in order.
type opGen struct {
	s     spec
	seed  uint64
	conn  uint64
	conns uint64
	rng   *workload.RNG
	zipf  *workload.Zipfian
	vers  []uint32 // shared across connections; each touches only its own indices
	batch op.Batch
}

// newOpGen creates connection conn's generator; stream separates the
// streams of a run's successive server instances.
func newOpGen(s spec, seed uint64, conn, conns int, stream uint64, vers []uint32) *opGen {
	sub := seed ^ (stream+1)*0xA0761D6478BD642F ^ uint64(conn+1)*0xE7037ED1A0B428DB
	g := &opGen{
		s: s, seed: seed, conn: uint64(conn), conns: uint64(conns), vers: vers,
		rng: workload.NewRNG(sub),
	}
	if s.zipf {
		n := s.keys
		if s.getShare < 1 {
			n /= conns
		}
		g.zipf = workload.NewZipfian(sub^0x5EED, n, 0.99)
	}
	return g
}

// index draws the next key index: uniform over the keyspace, or
// zipfian over it — over the connection's own partition when the
// workload updates.
func (g *opGen) index() uint64 {
	if g.zipf == nil {
		return g.rng.Next() % uint64(g.s.keys)
	}
	j := g.zipf.Next()
	if g.s.getShare == 1 {
		return min(j, uint64(g.s.keys)-1)
	}
	return min(j, uint64(g.s.keys)/g.conns-1)*g.conns + g.conn
}

// appendFrame appends one request frame to dst and its expectations to
// exp, advancing the generator (and, for updates, the key versions).
func (g *opGen) appendFrame(dst []byte, exp []expect) ([]byte, []expect) {
	switch g.s.frame {
	case frameSingleGet:
		i := g.index()
		dst = wire.AppendKey(dst, wire.OpGet, keyOf(g.seed, i))
		return dst, append(exp, expect{get: true, want: valueOf(g.seed, i, 0)})
	case frameGetBatch:
		// A GETBATCH payload is u32 n then n keys; written in place so the
		// frame costs no intermediate key slice.
		n := g.s.opsPerFrame
		dst = binary.LittleEndian.AppendUint32(dst, uint32(1+4+8*n))
		dst = append(dst, wire.OpGetBatch)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
		for k := 0; k < n; k++ {
			i := g.index()
			dst = binary.LittleEndian.AppendUint64(dst, keyOf(g.seed, i))
			exp = append(exp, expect{get: true, want: valueOf(g.seed, i, 0)})
		}
		return dst, exp
	default:
		g.batch.Reset()
		for k := 0; k < g.s.opsPerFrame; k++ {
			i := g.index()
			if g.rng.Float64() < g.s.getShare {
				g.batch.Get(keyOf(g.seed, i))
				exp = append(exp, expect{get: true, want: valueOf(g.seed, i, g.vers[i])})
			} else {
				g.vers[i]++
				g.batch.Put(keyOf(g.seed, i), valueOf(g.seed, i, g.vers[i]))
				exp = append(exp, expect{})
			}
		}
		return wire.AppendMixedBatch(dst, &g.batch), exp
	}
}

// verifyFrame checks one response frame against the expectations of its
// request and returns how many of its ops failed. Any status but OK, and
// any malformed payload, fails every op of the frame.
func verifyFrame(f frameKind, tag byte, p []byte, exp []expect) int {
	n := len(exp)
	switch f {
	case frameSingleGet:
		if tag != wire.StatusOK || len(p) != 8 || wire.Uint64(p, 0) != exp[0].want {
			return 1
		}
		return 0
	case frameGetBatch:
		if tag != wire.StatusOK || len(p) != 4+9*n || int(wire.Uint32(p, 0)) != n {
			return n
		}
		failed := 0
		vals := p[4+n:]
		for k, e := range exp {
			if p[4+k] != 1 || wire.Uint64(vals, 8*k) != e.want {
				failed++
			}
		}
		return failed
	default:
		gets := 0
		for _, e := range exp {
			if e.get {
				gets++
			}
		}
		if tag != wire.StatusOK || len(p) != 4+n+8*gets || int(wire.Uint32(p, 0)) != n {
			return n
		}
		failed := 0
		vals := p[4+n:]
		vi := 0
		for k, e := range exp {
			ok := p[4+k] == 1
			if e.get {
				ok = ok && wire.Uint64(vals, 8*vi) == e.want
				vi++
			}
			if !ok {
				failed++
			}
		}
		return failed
	}
}
