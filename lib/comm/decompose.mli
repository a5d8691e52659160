(** Orientation and block decomposition.

    "Any set can be decomposed into two sets each of them is oriented"
    (paper §2.1).  A mixed-orientation set splits into its right-oriented
    members and its left-oriented members; each part is scheduled
    separately (the left part after mirroring).

    A right-oriented well-nested set further factors at top level into
    balanced-parenthesis blocks.  {!blocks} groups those top-level
    nesting roots into maximal runs confined to disjoint aligned leaf
    intervals — each run's communications occupy only links of the
    subtree rooted at its interval's node, so the runs can be scheduled
    independently (on separate domains) and their execution logs merged
    round-by-round without any link ever being claimed twice. *)

val split : Comm_set.t -> Comm_set.t * Comm_set.t
(** [(right, left)] partition.  Both parts share the original [n]. *)

val is_oriented : Comm_set.t -> bool
(** All members share one orientation (or the set is empty). *)

type block = {
  base : int;  (** First leaf of the block's aligned interval. *)
  align : int;
      (** Width of the interval: a power of two by default, a subtree
          span from the supplied ladder when [?spans] is given. *)
  set : Comm_set.t;
      (** The block's members in the {e original} coordinates, over the
          original [n] PEs.  Every endpoint lies in
          [[base, base + align)]. *)
}

val blocks : ?check:bool -> ?spans:int array -> Comm_set.t -> block list
(** Partition a right-oriented well-nested set into its maximal
    independent top-level blocks, ordered by [base].

    Each top-level nesting root [(s, d)] is confined to the smallest
    aligned power-of-two leaf interval containing [[s, d]] — the leaf
    interval of the LCA of [s] and [d] in any complete binary tree with
    at least [n] leaves (alignment does not depend on the tree size, so
    the same blocks are valid for every topology the set fits).  Roots
    whose intervals coincide or nest are merged into one block; the
    resulting intervals are pairwise disjoint, hence the blocks share no
    tree link.  The union of the blocks' sets is the input set, and the
    concatenation of their communications (in block order) preserves the
    input's source order.

    Raises [Invalid_argument] if the set is not right-oriented or not
    well-nested.  [~check:false] skips that validation for callers that
    have already run {!Well_nested.validate} on this exact set (the
    decomposition itself assumes the laminar structure it certifies).

    [?spans] replaces the power-of-two ladder with the tree's actual
    ascending subtree span sizes (leaf-to-root, starting at 1, each
    dividing the next, the last at least the whole leaf range — e.g.
    [1; 16; 256] for a 256-leaf two-layer fat tree).  Blocks then align
    to real subtrees of that shape, which is what makes them
    link-disjoint on non-binary topologies. *)

val localize : block -> Comm_set.t
(** The block's members translated to block-local coordinates: a set
    over [align] PEs with every endpoint shifted down by [base].
    Scheduling [localize b] on an [align]-leaf tree is the standalone
    run whose log, rebased by [base], reproduces the block's share of
    the full-tree run (see [Cst.Exec_log.rebase]). *)
