package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"adjstream"
	"adjstream/internal/stream"
)

// Cluster mode, replica side. A median-of-k estimation is k independent
// copies whose results meet only at the final median, so a proxy can split
// one estimate request into disjoint copy ranges, run each range on a
// different replica, and merge the returned per-copy snapshots into the
// bit-identical single-node answer (see internal/cluster). POST /v1/shard
// is the replica half of that contract: it accepts one estimate spec plus a
// copy range, runs adjstream.EstimateShardContext through the same
// validation, admission pool, and deadline machinery as /v1/estimate, and
// answers with the raw "adjM" snapshot-set bytes — the exact framing
// cyclecount -snapshot writes to disk, so a shard response saved to a file
// merges with adjmerge unchanged.

// ErrRemoteUnavailable reports that a configured remote runner could not
// produce a result — no healthy replicas, or every shard attempt exhausted
// its retries. Unless Config.NoLocalFallback is set, the server falls back
// to the local pool+library path; when it is set, the HTTP layer maps the
// error to 503.
var ErrRemoteUnavailable = errors.New("serve: remote execution unavailable")

// RemoteRunner executes one validated estimation somewhere other than the
// local worker pool — in practice internal/cluster's scheduler, which fans
// copy-range shard calls out to replicas and merges the snapshots. kind is
// "estimate" or "distinguish" (req is the original, underived request). The
// returned response must be byte-identical (modulo ElapsedMS) to what the
// local path would produce, so the result cache in front stays oblivious.
// Errors wrapping ErrRemoteUnavailable trigger the local fallback.
type RemoteRunner func(ctx context.Context, kind string, req EstimateRequest, ds *Dataset) (EstimateResponse, error)

// ShardRequest is the body of POST /v1/shard: one estimate-shaped spec plus
// the copy range [CopyLo, CopyHi) of its k-copy run to execute here. The
// spec must already be estimate-shaped (Algorithm set; distinguish requests
// are derived to their underlying estimator by the proxy before sharding).
type ShardRequest struct {
	EstimateRequest
	// CopyLo is the first copy index this replica runs.
	CopyLo int `json:"copy_lo"`
	// CopyHi is one past the last copy index this replica runs.
	CopyHi int `json:"copy_hi"`
	// GraphVersion pins the graph version this shard must run against, so
	// a sharded run stays on one immutable snapshot fleet-wide even while
	// ingestion advances the graph. 0 means "current" (pre-versioning
	// proxies). The replica answers 409 when it no longer retains the
	// version; the proxy treats that as a replica failure and falls back
	// to its own pinned snapshot.
	GraphVersion uint64 `json:"graph_version,omitempty"`
	// GraphFingerprint is the pinned version's content hash (16 hex
	// digits — a string because JSON numbers lose precision past 2^53).
	// When set, the replica verifies its retained version has identical
	// content, catching diverged ingestion histories before they can
	// silently merge snapshots of different graphs.
	GraphFingerprint string `json:"graph_fingerprint,omitempty"`
}

// DeriveEstimate maps a distinguish request onto the estimate-shaped spec
// its run actually executes — the same derivation DistinguishContext
// applies: cycle length 3 uses the naive two-pass distinguisher, 4 the
// two-pass 4-cycle estimator, ≥5 the exact counter (with the budget fields
// cleared), and the sublinear cases default to SampleProb 0.25 when no
// budget is given. Estimate requests pass through unchanged. The decision
// bit is Estimate > 0 on the derived run's result.
func DeriveEstimate(kind string, r EstimateRequest) EstimateRequest {
	if kind != "distinguish" {
		return r
	}
	cycleLen := r.CycleLen
	if cycleLen == 0 {
		cycleLen = 3
	}
	r.CycleLen = 0
	switch {
	case cycleLen == 3:
		r.Algorithm = string(adjstream.AlgoNaiveTwoPass)
	case cycleLen == 4:
		r.Algorithm = string(adjstream.AlgoTwoPassFourCycle)
	default:
		r.Algorithm = string(adjstream.AlgoExact)
		r.CycleLen = cycleLen
		r.SampleSize, r.SampleProb = 0, 0
	}
	if cycleLen < 5 && r.SampleSize == 0 && r.SampleProb == 0 {
		r.SampleProb = 0.25
	}
	return r
}

// handleShard serves POST /v1/shard: decode, validate (as an estimate spec,
// before admission), run the copy range, and answer with the snapshot-set
// bytes. Errors use the same JSON bodies and status mapping as the JSON
// endpoints; the success body is binary (stream.SnapshotSetContentType).
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	tt := teleForEndpoint("shard")
	start := tt.start()
	status := http.StatusOK
	defer func() { tt.end(start, status) }()

	if r.Method != http.MethodPost {
		status = writeMethodNotAllowed(w, http.MethodPost)
		return
	}
	if s.draining.Load() {
		status = s.writeError(w, ErrDraining)
		return
	}
	var req ShardRequest
	if err := decodeRequest(w, r, &req); err != nil {
		status = s.writeError(w, err)
		return
	}
	if err := req.validate("estimate"); err != nil {
		status = s.writeError(w, err)
		return
	}
	ds, err := s.resolveShardDataset(req)
	if err != nil {
		status = s.writeError(w, err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.EstimateRequest))
	defer cancel()
	body, err := s.runShard(ctx, req, ds)
	if err != nil {
		status = s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", stream.SnapshotSetContentType)
	// Write failures past this point can only be connection errors.
	_, _ = w.Write(body)
}

// resolveShardDataset resolves the snapshot a shard request runs against:
// the current version when no pin is set, otherwise exactly the retained
// version the request pins (fingerprint-checked when supplied).
func (s *Server) resolveShardDataset(req ShardRequest) (*Dataset, error) {
	md, ok := s.cat.GetMutable(req.Graph)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownGraph, req.Graph)
	}
	if req.GraphVersion == 0 && req.GraphFingerprint == "" {
		return md.Current(), nil
	}
	if req.GraphVersion == 0 {
		return nil, fmt.Errorf("%w: graph_fingerprint set without graph_version", adjstream.ErrInvalidOptions)
	}
	var fp uint64
	if req.GraphFingerprint != "" {
		var err error
		fp, err = strconv.ParseUint(req.GraphFingerprint, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: graph_fingerprint %q is not 16 hex digits", adjstream.ErrInvalidOptions, req.GraphFingerprint)
		}
	}
	return md.At(req.GraphVersion, fp)
}

// runShard acquires a worker slot and executes the copy range, returning
// the encoded snapshot set. The copy-range bounds are validated by
// EstimateShardContext itself (wrapping ErrInvalidOptions → 400).
func (s *Server) runShard(ctx context.Context, req ShardRequest, ds *Dataset) ([]byte, error) {
	release, err := s.pool.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	if s.cfg.testHookRun != nil {
		s.cfg.testHookRun(ctx)
	}
	st, err := ds.Stream(req.Order, req.EffectiveSeed())
	if err != nil {
		return nil, err
	}
	snaps, err := adjstream.EstimateShardContext(ctx, st, req.options(), req.CopyLo, req.CopyHi)
	if err != nil {
		return nil, err
	}
	return stream.EncodeSnapshotSet(req.CopyLo, snaps)
}
