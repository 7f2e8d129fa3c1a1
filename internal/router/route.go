// The Router as a serve.Backend, and the routing loop behind it: pick a
// shard, forward, and on transport failure or an unavailable shard
// re-route under the hop budget. The outcome is always a typed
// wire.Response — the front end only renders it in the client's
// protocol, never invents statuses — so a shard's rate_limited or
// unserviceable answer reaches the client exactly as the shard wrote it.

package router

import (
	"context"
	"fmt"
	"slices"
	"time"

	"arlo/internal/serve"
	"arlo/internal/wire"
)

// Do implements serve.Backend: tokenize text router-side (one
// tokenization per request; pre-encoded ids are clamped to the same
// maximum), so the request is bucketed by its real length, and forward it
// as a ModeTokens frame. Tenant, deadline and generation budget ride
// along whichever frame revision the client spoke — the encoder picks the
// revision from the fields.
func (r *Router) Do(ctx context.Context, req wire.Request) (wire.Response, serve.Hop) {
	if req.Mode == wire.ModeText {
		// One exact-size copy out of the tokenizer's buffer is the []uint32
		// the forwarded frame carries.
		r.tok.Borrow(req.Text, r.cfg.MaxLength, func(ids []uint32) { req.Tokens = slices.Clone(ids) })
		req.Mode, req.Text = wire.ModeTokens, ""
	} else if len(req.Tokens) > r.cfg.MaxLength {
		req.Tokens = req.Tokens[:r.cfg.MaxLength]
	}
	return r.route(ctx, &req, len(req.Tokens))
}

// route forwards one request, rerouting on transport failures and
// StatusUnavailable answers until a shard replies, the hop budget is
// spent, or no shard remains. length is the request's token count (the
// bucketing key); req.ID is clobbered per attempt. The Hop names the
// shard that answered, the reroute hops before it, and the time spent
// routing (everything before the successful forward began).
func (r *Router) route(ctx context.Context, req *wire.Request, length int) (wire.Response, serve.Hop) {
	start := time.Now()
	tried := make([]bool, len(r.shards))
	var info serve.Hop
	for hops := 0; ; hops++ {
		if hops > 0 {
			r.reroutes.Add(1)
			if hops >= r.cfg.HopBudget {
				return wire.Response{Status: wire.StatusUnserviceable,
					Message: fmt.Sprintf("router: reroute hop budget (%d) exhausted", r.cfg.HopBudget)}, info
			}
		}
		idx := r.pick(length, tried)
		if idx < 0 {
			return wire.Response{Status: wire.StatusUnserviceable,
				Message: "router: no serviceable shard"}, info
		}
		tried[idx] = true
		sh := r.shards[idx]
		sh.requests.Add(1)
		attemptStart := time.Now()
		sh.inflight.Add(1)
		resp, err := r.forward(ctx, sh, req)
		sh.inflight.Add(-1)
		if err == nil && resp.Status != wire.StatusUnavailable {
			info = serve.Hop{Shard: sh.name, Hops: hops, Route: attemptStart.Sub(start)}
			r.routeHist.observe(info.Route)
			return resp, info
		}
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				// The client's own deadline fired mid-flight: a typed
				// deadline answer, not a reroute (re-executing a request
				// whose deadline is spent helps nobody). Asked of ctx, not
				// of err: a shard dial that hits its one-second bound also
				// matches context.DeadlineExceeded, and that is a transport
				// failure to route around.
				return wire.Response{Status: wire.StatusDeadline, Message: cerr.Error()}, info
			}
			// Transport failure: the shard is unreachable until a probe
			// says otherwise.
			sh.down.Store(true)
		}
		// StatusUnavailable (the shard is closing) or a dead connection:
		// the request is retryable on another shard.
	}
}

// forward sends the request over the shard's pipelined connection,
// dialing it first when needed.
func (r *Router) forward(ctx context.Context, sh *shard, req *wire.Request) (wire.Response, error) {
	c, err := sh.getConn()
	if err != nil {
		return wire.Response{}, err
	}
	return c.RoundTrip(ctx, req)
}
