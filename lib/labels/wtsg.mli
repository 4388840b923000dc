(** Weighted Timestamp Graph (Definition 3 of the paper).

    A node-weighted directed graph over the ⟨value, timestamp⟩ pairs a
    reader has gathered: the weight of a node is the number of distinct
    servers witnessing that exact pair, and there is an edge from node
    [i] to node [j] when [tsᵢ ≺ tsⱼ].  A reader returns the value of a
    node witnessed by at least [2f + 1] servers — enough that at least
    [f + 1] witnesses are correct, hence at least one of them holds the
    genuinely last written value.

    Witnesses are deduplicated per server: a Byzantine server listing
    the same pair many times (e.g. throughout its [old_vals] history)
    still contributes weight 1 to that node, so it cannot inflate a
    stale value past the threshold.

    {b Choosing among several qualifying nodes.}  In the union graph
    (replies plus per-server histories) every recently-written pair is
    witnessed by almost all servers, so several nodes typically clear
    the threshold and the read must return the {e newest}.  The bounded
    label relation [≺] orders consecutive writes reliably but compares
    distant (wrapped-around) labels arbitrarily, so [≺]-maximality
    alone can be fooled.  Each witness therefore carries its {e rank}
    in the server's report — 0 for the current pair, [i + 1] for the
    [i]-th history entry — and qualifying nodes are ordered by majority
    vote over the servers witnessing both: correct servers report their
    adoption order truthfully, and any [2f+1]-strong node has a
    majority of correct witnesses.  Label [≺] and weight act only as
    tie-breaks. *)

type witness = { server : int; value : int; ts : Mw_ts.t; rank : int }
(** One server vouching for one ⟨value, timestamp⟩ pair; [rank] is the
    pair's position in that server's report (0 = current value, larger
    = older). *)

type node = { value : int; ts : Mw_ts.t; weight : int }

type t

val build : witness list -> t
(** The WTsG over any witness list.  The read builds it only for the
    union graph: each server's current pair at rank 0 and its
    [old_vals] history after it.  The local graph over current replies
    alone is decided by {!best_current}, which builds nothing. *)

val nodes : t -> node list
(** All nodes, heaviest first (deterministic order). *)

val edges : t -> (node * node) list
(** Precedence edges [(a, b)] with [a.ts ≺ b.ts]. O(V²); intended for
    diagnostics and tests, not the read fast path. *)

val node_count : t -> int

val newer : t -> node -> node -> bool
(** [newer t a b]: the witnesses shared by both nodes place [a] more
    recently than [b] by strict majority. *)

val best : t -> min_weight:int -> node option
(** The node the read decision rule returns: among nodes of weight at
    least [min_weight], one that no other qualifying node beats on the
    recency vote, preferring [≺]-maximal then heaviest for ties.
    [None] when no node reaches the threshold — the signal that servers
    are in a transitory phase. *)

val best_current :
  replied:bool array -> values:int array -> stamps:Mw_ts.t array -> min_weight:int -> node option
(** The read decision over current replies: [best (build ws)
    ~min_weight] where [ws] holds one rank-0 witness
    ⟨[values.(s)], [stamps.(s)]⟩ for each server [s] with
    [replied.(s)], computed from the arrays without building a graph.

    Each server reports exactly one pair, so two distinct nodes never
    share a witness: the recency vote never decides ({!newer} is always
    false) and every qualifying node is undefeated.  The rule is
    therefore vote-free.  A pair's weight is the number of servers
    reporting it; among pairs of weight at least [min_weight] it
    returns the first [≺]-maximal one in the node order of {!nodes},
    else the first one, else [None].  O(n²) pair comparisons for [n]
    servers, more only when qualifying pairs precede one another; it
    allocates only the returned node. *)

val pp : Format.formatter -> t -> unit
