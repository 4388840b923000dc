(** Weighted Timestamp Graph (Definition 3 of the paper).

    A node-weighted directed graph over the ⟨value, timestamp⟩ pairs a
    reader has gathered: the weight of a node is the number of distinct
    servers witnessing that exact pair, and there is an edge from node
    [i] to node [j] when [tsᵢ ≺ tsⱼ].  A reader returns the value of a
    node witnessed by at least [2f + 1] servers — enough that at least
    [f + 1] witnesses are correct, hence at least one of them holds the
    genuinely last written value.

    The graph is kept as a flat witness table: one row per distinct
    pair, with its weight and each server's best rank for it.  Witnesses
    are deduplicated per server: a Byzantine server listing the same
    pair many times (e.g. throughout its [old_vals] history) still
    contributes weight 1 to that node, so it cannot inflate a stale
    value past the threshold.

    {b One decision rule, {!best}.}  A read first fills the table with
    each replier's current pair at rank 0.  Then no two nodes share a
    witness, the recency vote never decides, and the rule reduces to
    [≺]-maximality among the qualifying pairs.  Only when no pair
    qualifies does the read add each replier's history and decide the
    union graph.  There every recently-written pair is witnessed by
    almost all servers, so several nodes typically clear the threshold
    and the read must return the {e newest}.  The bounded label relation
    [≺] orders consecutive writes reliably but compares distant
    (wrapped-around) labels arbitrarily, so [≺]-maximality alone can be
    fooled.  Each witness therefore carries its {e rank} in the server's
    report — 0 for the current pair, [i + 1] for the [i]-th history
    entry — and qualifying nodes are ordered by majority vote over the
    servers witnessing both.  Concurrent writes reach correct servers
    in different orders, so the vote can cycle with no fault at all; the
    rule then keeps the vote's top cycle.  Label [≺] and node order act
    only as tie-breaks. *)

type witness = { server : int; value : int; ts : Mw_ts.t; rank : int }
(** One server vouching for one ⟨value, timestamp⟩ pair; [rank] is the
    pair's position in that server's report (0 = current value, larger
    = older). *)

type node = { value : int; ts : Mw_ts.t; weight : int }

type t
(** A witness table.  It is mutable: {!add} extends it. *)

val build : witness list -> t
(** A fresh table holding the witnesses, over servers [0] to the largest
    id among them.  Raises [Invalid_argument] on a negative id. *)

val local : servers:int -> t
(** The calling domain's reusable table, emptied, for servers
    [0 .. servers - 1].  A read fills it and decides synchronously, so
    two decisions of one domain never overlap; the next call to [local]
    on the domain empties it again. *)

val add : t -> server:int -> value:int -> ts:Mw_ts.t -> rank:int -> unit
(** [server] vouches for ⟨[value], [ts]⟩ at [rank]; a server's lowest
    rank for a pair counts.  Allocates nothing once the table has room.
    Raises [Invalid_argument] for a server outside the table's. *)

val nodes : t -> node list
(** All nodes in node order: heaviest first, then structural timestamp
    order, then value. *)

val newer : t -> node -> node -> bool
(** [newer t a b]: the witnesses shared by both nodes place [a] more
    recently than [b] by strict majority. *)

val best : t -> min_weight:int -> node option
(** The read decision rule.  Among nodes of weight at least
    [min_weight], in node order, it keeps those that no other
    qualifying node beats on the recency vote ({!newer}).  When the
    vote has a cycle and none is undefeated, it keeps the vote's top
    cycle instead: the nodes that beat, through a chain of wins, every
    node that beats them through one.  It returns the first kept node
    that is [≺]-maximal among the kept ones, else the first kept node.
    [None] when no node reaches the threshold — the signal that servers
    are in a transitory phase.  It leaves the table as it was, and
    allocates only its answer unless the vote cycles. *)
