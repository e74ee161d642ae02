// Package transport is the message plane under the sharded pregel
// engine: it moves opaque byte frames between shards and provides the
// superstep barrier. The engine's SoA outboxes (outTo/outMsg per
// worker pair) serialize into one length-prefixed frame per remote
// worker-pair bucket — nearly a memcpy for POD message types, with
// sender-side combining already applied — so the transport never looks
// inside a frame.
//
// Socket, a full mesh over unix or TCP sockets, is the implementation.
// An unsharded engine holds no transport at all. See DESIGN.md "Sharded
// message plane".
package transport

// Transport connects one shard to its peers. All methods are called
// from the engine's master goroutine only; implementations may use
// background readers internally but need not synchronize Send/Barrier
// against each other.
//
// The contract couples data frames to barriers: every frame Sent by a
// peer during superstep k becomes readable through Recv exactly after
// the local Barrier call for superstep k returns. Barrier is an
// all-gather — each shard contributes one control payload and receives
// every shard's, indexed by shard — which the engine uses for
// aggregator exchange, abort propagation, and stats merging, and after
// the run as a general value all-gather.
type Transport interface {
	// Send queues one data frame for shard dst. The frame becomes
	// visible to dst only after both sides pass the enclosing Barrier.
	// The callee may retain the slice until the next Barrier returns;
	// callers must not reuse it before then.
	Send(dst int, frame []byte) error
	// Recv pops the next inbound data frame released by the last
	// Barrier, in per-peer FIFO order. It returns (nil, nil) when the
	// interval is drained; it never blocks.
	Recv() ([]byte, error)
	// Barrier publishes this shard's control payload, waits for every
	// peer's, and returns all payloads indexed by shard (the local
	// payload at the local index). The returned slices are valid until
	// the next Barrier call.
	Barrier(ctrl []byte) ([][]byte, error)
	// Close tears the mesh down. Peers blocked in Barrier observe an
	// error rather than hanging.
	Close() error
}
