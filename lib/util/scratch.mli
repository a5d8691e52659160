(** Per-domain scratch buffers.

    A scratch is working storage that a call borrows and hands back in
    its idle state (typically all zero), so a query that touches k
    slots of a tree-sized buffer costs O(k), not O(tree): the buffer is
    allocated once per domain and reset by the call that dirtied it,
    through its own list of touched slots.  A scratch carries nothing
    from one call to the next. *)

type 'a t

val create : (unit -> 'a) -> 'a t
(** [create fresh]: each domain lazily gets its own [fresh ()]. *)

val use : 'a t -> ('a -> 'b) -> 'b
(** [use t f] runs [f] on the calling domain's scratch.  [f] must
    return it to its idle state before returning; a scratch grown by
    [f] (a mutable field replaced by a larger buffer) stays grown.  If
    [f] raises, the scratch is dropped and the domain gets a [fresh ()]
    one next time.  A nested or concurrent [use] on the same domain,
    which finds the scratch borrowed, runs on a [fresh ()] one. *)
