package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sync"

	"ubac/internal/admission"
	"ubac/internal/wal"
	"ubac/internal/wire"
)

// Node ties the pieces into one cluster member: the edge plane every
// admit takes its capacity from, the follower loop that heartbeats the
// authority and mirrors its WAL, the election (cold start or rank
// ladder) that replays the mirror into a fresh ledger, and the
// authority state once promoted. It implements wire.ClusterHandler, so
// a single wire listener carries both admission traffic (served by the
// node's controller, its edge plane installed as the lease source) and
// cluster control frames.
type Node struct {
	cfg      Config
	ids      []uint32 // member IDs ascending
	ctrl     *admission.Controller
	edge     *edgePlane
	obs      Observer
	logf     func(string, ...any)
	dir      string
	fp       uint64
	segBytes int64
	timeout  time.Duration // one cluster RPC

	// leaseReq is dispatchGrant's request buffer. The edge plane makes
	// its lease calls under its leaseMu, so they never overlap.
	leaseReq []byte

	mu          sync.Mutex
	role        Role
	authorityID uint32 // NoAuthority when unknown
	epoch       uint64 // highest cluster epoch heard
	auth        *authority
	log         *wal.Log
	lastContact time.Time
	cursorSeg   uint64 // follower replication cursor
	cursorOff   int64
	paused      bool // replication paused: local mirror ahead of a new authority
	failed      bool // a promotion failed in this process: no cold start again
	clients     map[uint32]*wire.Client
	mirror      *os.File // open segment file the cursor points into
	mirrorSeg   uint64
	// unreached holds every other member, true when this node's last
	// heartbeat to it failed (every one before the first round).
	unreached map[uint32]bool

	kick chan struct{} // a round wanted before the next tick; see nudge
	stop chan struct{}
	done chan struct{}
}

// NodeOptions configures NewNode.
type NodeOptions struct {
	// Config is the static cluster configuration (validated here).
	Config Config
	// Controller is this node's admission controller, built from the
	// shared configuration: every admit on the node runs through it,
	// against the edge plane NewNode installs as its lease source, and
	// on the authority it is also the live utilization ledger.
	Controller *admission.Controller
	// DataDir holds the WAL (authored when authority, mirrored when
	// follower). Created if missing.
	DataDir string
	// SegmentBytes is the WAL segment size when this node authors
	// (default 4 MiB). Must match across members.
	SegmentBytes int64
	// Observer receives cluster telemetry (nil = none).
	Observer Observer
	// Logf receives operational log lines (nil = discard).
	Logf func(format string, args ...any)
}

// NewNode builds a node. Every node starts as a follower with no known
// authority. Its control loop runs a heartbeat round at Start, on every
// heartbeat tick, and as soon as a heartbeat brings news to a node that
// knows no live authority (see newsLocked). A cold cluster elects its
// lowest-ID member on the first round in which every other member
// answers that it has heard of no authority — the round the last member
// to start listening sets off by heartbeating it; with a member down, or
// any epoch heard, the election falls back to the promotion ladder that
// failover uses, after the suspicion timeout. A node that promotes
// heartbeats every member at once, so the others follow it within a
// round trip.
func NewNode(opts NodeOptions) (*Node, error) {
	cfg := opts.Config.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Controller == nil {
		return nil, fmt.Errorf("cluster: nil controller")
	}
	if opts.DataDir == "" {
		return nil, fmt.Errorf("cluster: no data directory")
	}
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	n := &Node{
		cfg:         cfg,
		ids:         cfg.sortedIDs(),
		ctrl:        opts.Controller,
		obs:         opts.Observer,
		logf:        opts.Logf,
		dir:         opts.DataDir,
		fp:          opts.Controller.Fingerprint(),
		segBytes:    opts.SegmentBytes,
		role:        RoleFollower,
		authorityID: NoAuthority,
		clients:     make(map[uint32]*wire.Client),
		unreached:   make(map[uint32]bool, len(cfg.Members)),
		kick:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	for _, id := range n.ids {
		if id != cfg.NodeID {
			n.unreached[id] = true
		}
	}
	if n.segBytes <= 0 {
		n.segBytes = 4 << 20
	}
	if n.obs == nil {
		n.obs = nopObserver{}
	}
	if n.logf == nil {
		n.logf = func(string, ...any) {}
	}
	n.timeout = cfg.SuspicionTimeout / 2
	if n.timeout < 50*time.Millisecond {
		n.timeout = 50 * time.Millisecond
	}
	n.edge = newEdgePlane(n.ctrl, cfg, n.obs, n.dispatchGrant)
	n.cursorSeg, n.cursorOff = scanMirror(n.dir)
	return n, nil
}

// scanMirror finds the local replication cursor: the highest
// contiguous segment file from 0 and its size.
func scanMirror(dir string) (seg uint64, off int64) {
	for i := uint64(0); ; i++ {
		st, err := os.Stat(filepath.Join(dir, wal.SegmentFileName(i)))
		if err != nil {
			if i == 0 {
				return 0, 0
			}
			return i - 1, off
		}
		off = st.Size()
		seg = i
	}
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// AuthorityID returns the authority this node currently believes in
// (NoAuthority when unknown).
func (n *Node) AuthorityID() uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RoleAuthority {
		return n.cfg.NodeID
	}
	return n.authorityID
}

// Epoch returns the highest cluster epoch this node has heard.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Start launches the control loop, whose first round runs at once.
func (n *Node) Start() {
	n.mu.Lock()
	n.lastContact = time.Now()
	n.mu.Unlock()
	n.nudge()
	go n.run()
}

// nudge asks the control loop for a round now, on top of its ticks. It
// never blocks, and a nudge made while one is pending merges with it.
func (n *Node) nudge() {
	select {
	case n.kick <- struct{}{}:
	default:
	}
}

// Stop shuts the node down: a follower relinquishes its leases to the
// authority (best effort), an authority closes its log.
func (n *Node) Stop() {
	close(n.stop)
	<-n.done
	n.mu.Lock()
	role, aid := n.role, n.authorityID
	log, mirror := n.log, n.mirror
	clients := n.clients
	n.clients = make(map[uint32]*wire.Client)
	n.mirror = nil
	n.mu.Unlock()
	if role == RoleFollower && aid != NoAuthority {
		if items := n.edge.detach(); len(items) > 0 {
			if cl, ok := clients[aid]; ok {
				body := appendRevokeReq(nil, n.cfg.NodeID, items)
				_, err := cl.ClusterCall(wire.FrameRevoke, uint16(len(items)), body, n.timeout)
				if err != nil {
					n.logf("cluster: relinquish on shutdown: %v", err)
				}
			}
		}
	}
	if mirror != nil {
		mirror.Close()
	}
	if log != nil {
		if err := log.Close(); err != nil {
			n.logf("cluster: closing log: %v", err)
		}
	}
	for _, cl := range clients {
		cl.Close()
	}
}

func (n *Node) run() {
	defer close(n.done)
	t := time.NewTicker(n.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		var now time.Time
		select {
		case <-n.stop:
			return
		case now = <-t.C:
		case <-n.kick:
			now = time.Now()
		}
		n.round(now)
		n.edge.maybeRenew(now)
	}
}

// round is one pass of the control loop. A follower whose authority
// does not answer probes the whole membership in the same round, so it
// finds a new authority without waiting out its own ladder.
func (n *Node) round(now time.Time) {
	n.mu.Lock()
	role, aid := n.role, n.authorityID
	n.mu.Unlock()
	switch role {
	case RoleAuthority:
		n.mu.Lock()
		a := n.auth
		n.mu.Unlock()
		a.reap(now)
	case RoleFollower:
		cold := false
		if aid == NoAuthority || !n.contactAuthority(aid, now) {
			cold = n.probe(now) == probeCold
		}
		n.maybePromote(now, cold)
	}
}

// clientFor returns (dialing if needed) the wire client for a member.
func (n *Node) clientFor(id uint32) (*wire.Client, error) {
	n.mu.Lock()
	cl, ok := n.clients[id]
	n.mu.Unlock()
	if ok {
		return cl, nil
	}
	addr := n.cfg.addrOf(id)
	if addr == "" {
		return nil, fmt.Errorf("cluster: unknown member %d", id)
	}
	cl, err := wire.Dial(wire.ClientOptions{
		Addr:         addr,
		Conns:        1,
		DialTimeout:  n.timeout,
		Timeout:      n.timeout,
		Reconnect:    true,
		ReconnectMin: n.cfg.HeartbeatInterval / 2,
		ReconnectMax: n.cfg.SuspicionTimeout,
	})
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if prior, ok := n.clients[id]; ok {
		n.mu.Unlock()
		cl.Close()
		return prior, nil
	}
	n.clients[id] = cl
	n.mu.Unlock()
	return cl, nil
}

// heartbeat asks one member who it thinks it is.
func (n *Node) heartbeat(id uint32) (Role, uint32, uint64, error) {
	cl, err := n.clientFor(id)
	if err != nil {
		return 0, 0, 0, err
	}
	body := appendHeartbeatReq(nil, n.cfg.NodeID)
	resp, err := cl.ClusterCall(wire.FrameHeartbeat, 0, body, n.timeout)
	if err != nil {
		return 0, 0, 0, err
	}
	return decodeHeartbeatResp(resp)
}

// contactAuthority is the follower's per-round exchange with its
// authority: one heartbeat, then fetch until caught up. It reports
// whether the member answered as authority.
func (n *Node) contactAuthority(aid uint32, now time.Time) bool {
	role, _, epoch, err := n.heartbeat(aid)
	n.mu.Lock()
	n.unreached[aid] = err != nil
	n.mu.Unlock()
	if err != nil {
		n.obs.ClusterHeartbeatMiss()
		return false
	}
	if role != RoleAuthority {
		// It abdicated or never was; forget it.
		n.mu.Lock()
		if n.authorityID == aid {
			n.authorityID = NoAuthority
		}
		n.mu.Unlock()
		return false
	}
	n.mu.Lock()
	n.lastContact = now
	if epoch > n.epoch {
		n.epoch = epoch
	}
	paused := n.paused
	n.mu.Unlock()
	if !paused {
		n.fetchFrom(aid)
	}
	return true
}

// fetchFrom drains the authority's durable log into the local mirror.
func (n *Node) fetchFrom(aid uint32) {
	cl, err := n.clientFor(aid)
	if err != nil {
		return
	}
	for rounds := 0; rounds < 64; rounds++ {
		n.mu.Lock()
		seg, off := n.cursorSeg, n.cursorOff
		n.mu.Unlock()
		body := appendFetchReq(nil, seg, off, fetchMax)
		resp, err := cl.ClusterCall(wire.FrameFetch, 0, body, n.timeout)
		if err != nil {
			// An offset error means our mirror runs ahead of this
			// authority's log (we out-fetched the member that promoted).
			// The mirror is still a valid prefix-plus of the old history;
			// pause replication rather than corrupt it.
			if !n.pauseIfAhead(aid, err) {
				n.obs.ClusterHeartbeatMiss()
			}
			return
		}
		tailSeg, tailOff, eos, data, err := decodeFetchResp(resp)
		if err != nil {
			n.logf("cluster: fetch decode: %v", err)
			return
		}
		if len(data) > 0 {
			if err := n.mirrorWrite(seg, off, data); err != nil {
				n.logf("cluster: mirror write: %v", err)
				return
			}
			n.mu.Lock()
			n.cursorOff += int64(len(data))
			n.mu.Unlock()
		}
		if eos {
			n.mu.Lock()
			n.cursorSeg++
			n.cursorOff = 0
			n.mu.Unlock()
			continue
		}
		if len(data) == 0 {
			// Caught up to the durable tail.
			lag := (int64(tailSeg)-int64(seg))*n.segBytes + (tailOff - off)
			if lag < 0 {
				lag = 0
			}
			n.obs.ClusterLag(lag)
			return
		}
	}
	// Still behind after a full burst: report remaining lag next tick.
}

// pauseIfAhead detects the mirror-ahead-of-authority fetch error and
// pauses replication until the authority changes again.
func (n *Node) pauseIfAhead(aid uint32, err error) bool {
	if !errors.Is(err, wire.ErrFetchOutOfRange) {
		return false
	}
	n.mu.Lock()
	already := n.paused
	n.paused = true
	n.mu.Unlock()
	if !already {
		n.logf("cluster: local mirror ahead of authority %d (%v); replication paused — restart this node with a clean data dir to resume", aid, err)
	}
	return true
}

// mirrorWrite appends verbatim fetched bytes to the local copy of a
// segment, fsyncing each batch so the cursor never runs ahead of disk.
func (n *Node) mirrorWrite(seg uint64, off int64, data []byte) error {
	n.mu.Lock()
	f := n.mirror
	if f != nil && n.mirrorSeg != seg {
		f.Close()
		f, n.mirror = nil, nil
	}
	n.mu.Unlock()
	if f == nil {
		var err error
		f, err = os.OpenFile(filepath.Join(n.dir, wal.SegmentFileName(seg)), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		n.mu.Lock()
		n.mirror, n.mirrorSeg = f, seg
		n.mu.Unlock()
	}
	if _, err := f.WriteAt(data, off); err != nil {
		return err
	}
	return f.Sync()
}

// probeVerdict is what one heartbeat round over the membership found,
// ordered so that the round's verdict is the highest any member gave.
type probeVerdict int

const (
	// probeCold: every other member answered as a follower that has
	// heard of no authority at any epoch.
	probeCold probeVerdict = iota
	// probeHeadless: no authority or candidate answered, but a member
	// did not answer, or knows of an authority or an epoch.
	probeHeadless
	// probeCandidate: a peer is mid-promotion.
	probeCandidate
	// probeFollowing: a member answered as authority; this node now
	// follows it.
	probeFollowing
)

// probe heartbeats every other member, looking for a live authority to
// follow. Short of one, it reports whether a peer is mid-promotion
// (RoleCandidate) — replaying a mirror and re-reserving backings takes
// real time, and a ladder that only recognizes finished authorities
// would fire into that window and split the cluster — and whether the
// whole membership answered cold.
func (n *Node) probe(now time.Time) probeVerdict {
	v := probeCold
	for _, id := range n.ids {
		if id == n.cfg.NodeID {
			continue
		}
		role, aid, epoch, err := n.heartbeat(id)
		n.mu.Lock()
		n.unreached[id] = err != nil
		n.mu.Unlock()
		switch {
		case err != nil, role == RoleFollower && (aid != NoAuthority || epoch != 0):
			v = max(v, probeHeadless)
		case role == RoleCandidate:
			v = probeCandidate
		case role == RoleAuthority:
			n.mu.Lock()
			n.authorityID = id
			n.lastContact = now
			n.paused = false
			if epoch > n.epoch {
				n.epoch = epoch
			}
			n.mu.Unlock()
			n.edge.markReattach()
			n.logf("cluster: following authority %d (epoch %d)", id, epoch)
			return probeFollowing
		}
	}
	return v
}

// newsLocked reports whether a heartbeat from member `from` should set
// off a round now rather than at the next tick. Only a follower with no
// live authority (none, or one its last heartbeat did not reach) takes
// news, of two kinds: `from` is a member its last round could not
// reach, which has come up; or `from` is the member an election would
// pick, the lowest ID among this node and the members it reached — how
// a promotion's announcement lands, cold or by the ladder. The pick
// never takes the second kind, so a headless member runs at most one
// extra round per round of the pick's, and no two headless members set
// each other off in turn.
func (n *Node) newsLocked(from uint32) bool {
	if n.role != RoleFollower || n.authorityID != NoAuthority && !n.unreached[n.authorityID] {
		return false
	}
	unreached, member := n.unreached[from]
	if !member {
		return false // a probe from outside the membership
	}
	if unreached {
		return true
	}
	for _, id := range n.ids {
		if id == n.cfg.NodeID || !n.unreached[id] {
			return id == from
		}
	}
	return false
}

// announce heartbeats every other member, so that a follower hears of
// this new authority from it (see newsLocked) rather than at its own
// next tick or, still naming a dead authority, after its ladder wait.
// The heartbeats go out in parallel: after a failover one member is the
// dead authority, and a dial to it may take the full RPC timeout.
func (n *Node) announce() {
	var wg sync.WaitGroup
	for _, id := range n.ids {
		if id == n.cfg.NodeID {
			continue
		}
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			n.heartbeat(id)
		}(id)
	}
	wg.Wait()
}

// coldLocked reports whether this node may promote by cold start: it
// heads the ladder (the lowest member ID), has heard of no authority at
// any epoch, and no promotion of its own has failed — a failed one
// resets only the silence clock, which the cold start does not read.
func (n *Node) coldLocked() bool {
	return n.authorityID == NoAuthority && n.epoch == 0 && !n.failed && n.cfg.rank(NoAuthority) == 0
}

// maybePromote elects this node when it is eligible: by the ladder,
// after the suspicion timeout plus this node's rank delay with no
// authority contact; or by cold start, when coldRound says this round's
// probe found every other member cold. Eligible, it becomes a candidate
// before it looks again, so of two promoters that can reach each other
// at least one sees the other. It promotes only if that second probe
// finds the cluster headless, no peer mid-promotion, and the ladder
// wait passed or the membership still cold. A peer seen mid-promotion
// resets the clock: defer to it, and if it fails (it demotes itself) a
// full suspicion cycle restarts the ladder.
func (n *Node) maybePromote(now time.Time, coldRound bool) {
	n.mu.Lock()
	if n.role != RoleFollower {
		n.mu.Unlock()
		return
	}
	silent := now.Sub(n.lastContact)
	wait := n.cfg.SuspicionTimeout + time.Duration(n.cfg.rank(n.authorityID))*n.cfg.LadderDelay
	cold := coldRound && n.coldLocked()
	if silent < wait && !cold {
		n.mu.Unlock()
		return
	}
	n.role = RoleCandidate
	n.mu.Unlock()
	n.obs.ClusterRoleChange()

	switch v := n.probe(now); {
	case v == probeCold && cold:
		n.promote(now, fmt.Sprintf("cold start, %d members answered", len(n.cfg.Members)-1))
	case v <= probeHeadless && silent >= wait:
		n.promote(now, fmt.Sprintf("no authority for %v", silent))
	default:
		n.mu.Lock()
		n.role = RoleFollower
		if v == probeCandidate {
			n.lastContact = now
		}
		n.mu.Unlock()
		n.obs.ClusterRoleChange()
		if v == probeCandidate {
			n.logf("cluster: a peer is promoting; deferring")
		}
	}
}

// promote replays the local mirror into the ledger and takes over as
// authority at a fresh epoch; the caller has made this node a
// candidate. why names the path that elected it, for the log.
func (n *Node) promote(now time.Time, why string) {
	n.mu.Lock()
	if f := n.mirror; f != nil {
		f.Close()
		n.mirror = nil
	}
	knownEpoch := n.epoch
	n.mu.Unlock()
	n.logf("cluster: %s; promoting from local mirror", why)

	fail := func(err error) {
		n.logf("cluster: promotion failed: %v", err)
		n.mu.Lock()
		n.role = RoleFollower
		n.failed = true
		n.lastContact = time.Now() // full suspicion cycle before retrying
		n.mu.Unlock()
		n.obs.ClusterRoleChange()
	}

	rs := newReplayState(n.ctrl)
	info, err := wal.Recover(n.dir, n.fp, rs)
	if err != nil {
		fail(err)
		return
	}
	if info.SnapshotLoaded {
		fail(fmt.Errorf("snapshot in cluster data dir (cluster logs are full-history)"))
		return
	}
	// Re-reserve every replayed backing on the fresh ledger. The old
	// authority enforced the bound over these same backings, so this
	// cannot fail; if it somehow does, nothing unsafe has happened (the
	// ledger holds at most the bound) but this node cannot serve.
	reserved := make([]backKey, 0, len(rs.backing))
	for key, b := range rs.backing {
		if !n.ctrl.ReserveBlock(int(key.ci), key.ri, int64(b)) {
			for _, k := range reserved {
				n.ctrl.ReleaseBlock(int(k.ci), k.ri, int64(rs.backing[k]))
			}
			fail(fmt.Errorf("replayed backing (%d,%d,%d)=%d does not fit the ledger", key.node, key.ci, key.ri, b))
			return
		}
		reserved = append(reserved, key)
	}
	epoch := info.Epoch
	if knownEpoch > epoch {
		epoch = knownEpoch
	}
	log, err := wal.Open(wal.Options{
		Dir:           n.dir,
		SegmentBytes:  n.segBytes,
		Fingerprint:   n.fp,
		Epoch:         epoch + 1,
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		for _, k := range reserved {
			n.ctrl.ReleaseBlock(int(k.ci), k.ri, int64(rs.backing[k]))
		}
		fail(err)
		return
	}
	nBackings := len(rs.backing) // snapshot before the authority owns the map
	a := newAuthority(n.ctrl, log, n.cfg, n.logf, rs.backing, now)
	n.mu.Lock()
	n.auth = a
	n.log = log
	n.role = RoleAuthority
	n.authorityID = n.cfg.NodeID
	n.epoch = epoch + 1
	n.mu.Unlock()
	n.obs.ClusterRoleChange()
	n.logf("cluster: promoted to authority at epoch %d (replayed %d lease records, %d backings, %d segments)",
		epoch+1, info.ReplayedLeases, nBackings, info.Segments)
	n.announce()
	// Reattach the local edge immediately: its holdings survive the
	// promotion and count toward settling.
	n.edge.markReattach()
	n.edge.renewNow(time.Now())
}

// dispatchGrant is the edge plane's grant function: in-process when
// this node is the authority, one wire round trip otherwise.
func (n *Node) dispatchGrant(items []leaseItem, grants []uint64) ([]uint64, time.Duration, error) {
	n.mu.Lock()
	role, a, aid := n.role, n.auth, n.authorityID
	n.mu.Unlock()
	if role == RoleAuthority {
		grants, err := a.handleLease(n.cfg.NodeID, items, grants, time.Now())
		return grants, n.cfg.LeaseTTL, err
	}
	if aid == NoAuthority {
		return grants, 0, fmt.Errorf("cluster: no known authority")
	}
	cl, err := n.clientFor(aid)
	if err != nil {
		return grants, 0, err
	}
	n.leaseReq = appendLeaseReq(n.leaseReq[:0], n.cfg.NodeID, items)
	resp, err := cl.ClusterCall(wire.FrameLease, uint16(len(items)), n.leaseReq, n.timeout)
	if err != nil {
		return grants, 0, err
	}
	return decodeLeaseResp(resp, items, grants)
}

// ClusterFrame implements wire.ClusterHandler: the server hands every
// cluster-typed frame here and writes back whatever this returns.
func (n *Node) ClusterFrame(typ byte, count uint16, body, dst []byte) (uint16, []byte, uint32, string) {
	switch typ {
	case wire.FrameHeartbeat:
		node, err := decodeHeartbeatReq(body)
		if err != nil {
			return 0, nil, wire.StatusInternal, err.Error()
		}
		n.mu.Lock()
		role, aid, epoch, a := n.role, n.authorityID, n.epoch, n.auth
		news := n.newsLocked(node)
		n.mu.Unlock()
		if news {
			n.nudge()
		}
		if role == RoleAuthority {
			aid = n.cfg.NodeID
			a.noteSeen(node, time.Now())
		}
		return 0, appendHeartbeatResp(dst, role, aid, epoch), wire.StatusOK, ""

	case wire.FrameLease:
		a, ok := n.authorityState()
		if !ok {
			return 0, nil, wire.StatusInternal, "not the authority"
		}
		resp, err := a.serveLease(count, body, dst, time.Now())
		if err != nil {
			return 0, nil, wire.StatusInternal, err.Error()
		}
		return count, resp, wire.StatusOK, ""

	case wire.FrameFetch:
		a, ok := n.authorityState()
		if !ok {
			return 0, nil, wire.StatusInternal, "not the authority"
		}
		seg, off, max, err := decodeFetchReq(body)
		if err != nil {
			return 0, nil, wire.StatusInternal, err.Error()
		}
		resp, err := a.handleFetch(seg, off, max, dst)
		if errors.Is(err, wal.ErrOutOfRange) {
			return 0, nil, wire.StatusFetchOutOfRange, err.Error()
		}
		if err != nil {
			return 0, nil, wire.StatusInternal, err.Error()
		}
		return 0, resp, wire.StatusOK, ""

	case wire.FrameRevoke:
		a, ok := n.authorityState()
		if !ok {
			return 0, nil, wire.StatusInternal, "not the authority"
		}
		node, items, err := decodeRevokeReq(count, body)
		if err != nil {
			return 0, nil, wire.StatusInternal, err.Error()
		}
		statuses, err := a.handleRevoke(node, items, time.Now())
		if err != nil {
			return 0, nil, wire.StatusInternal, err.Error()
		}
		return count, append(dst, statuses...), wire.StatusOK, ""
	}
	return 0, nil, wire.StatusInternal, fmt.Sprintf("cluster: unhandled frame 0x%02x", typ)
}

// settled reports whether this node is the authority and its settling
// phase (if any) has completed — grants are open.
func (n *Node) settled() bool {
	a, ok := n.authorityState()
	if !ok {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return !a.settling
}

func (n *Node) authorityState() (*authority, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != RoleAuthority {
		return nil, false
	}
	return n.auth, true
}
