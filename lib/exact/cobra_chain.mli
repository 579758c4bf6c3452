(** Exact analysis of the COBRA set process on small graphs.

    The COBRA process [(C_t)] is a Markov chain on vertex subsets.  From
    a set [C], the probability that all particles land inside [S] is a
    product over senders, so the one-round distribution follows by
    Moebius inversion over the subset lattice:

    [P(C_1 = T | C_0 = C) = sum over S ⊆ T of (-1)^{|T \ S|} ∏_{u ∈ C} p_u(S)]

    where [p_u(S)] is the probability that all of [u]'s picks land in
    [S].  This module computes that distribution exactly and derives
    exact tail probabilities and expectations — the oracles the test
    suite holds the Monte-Carlo engine against, and one side of the
    machine-precision duality check.

    All subsets are bitmasks ({!Subset}); sizes are capped as
    documented per function. *)

val next_dist :
  Cobra_graph.Graph.t -> ?branching:Cobra_core.Process.branching -> ?lazy_:bool ->
  current:int -> unit -> (int * float) list
(** [next_dist g ~current ()] is the exact distribution of [C_{t+1}]
    given [C_t = current], as [(mask, probability)] pairs with positive
    probability, summing to 1.  Defaults: [branching = Fixed 2],
    [lazy_ = false].  Requires [Graph.n g <= 20].  The exact reference
    the conformance tests hold one keyed COBRA round to.

    Cost, for k the size of the reachable set of [current]: each
    member's all-picks probabilities are tabulated once per call
    (O(deg u) entries); then each of the 2^k subsets takes one popcount
    and one table lookup per member, and the Moebius inversion takes
    O(k 2^k) — O((k + |current|) 2^k) in all, with two 2^k-word scratch
    arrays.

    @raise Invalid_argument on an empty [current], a [current] with
    vertices outside [\[0, n)], or an isolated member. *)

val hit_tail :
  Cobra_graph.Graph.t -> ?branching:Cobra_core.Process.branching -> ?lazy_:bool ->
  c0:int -> target:int -> horizon:int -> unit -> float array
(** [hit_tail g ~c0 ~target ~horizon ()] is the exact array
    [t -> P(Hit(target) > t)] for [t = 0 .. horizon], where [Hit] is the
    first round the target holds a particle when [C_0 = c0] (round 0
    included: entry 0 is 0 when the target is in [c0]).
    Requires [Graph.n g <= 12].

    @raise Invalid_argument on an empty [c0], a [c0] with vertices
    outside [\[0, n)], a bad [target] or a negative [horizon]. *)

val cover_tail :
  Cobra_graph.Graph.t -> ?branching:Cobra_core.Process.branching -> ?lazy_:bool ->
  ?eps:float -> ?max_rounds:int -> start:int -> unit -> float array
(** The law {!expected_cover} sums, exported for the exact-solver
    tests.  [cover_tail g ~start ()] is the exact array
    [t -> P(cover > t)],
    computed by evolving the joint (visited, current) distribution until
    the uncovered mass drops below [eps] (default 1e-12) or [max_rounds]
    (default 10000) is reached.  Requires [Graph.n g <= 7] (the joint
    space has up to 3^n states).

    @raise Failure if the mass has not drained below [eps] by
    [max_rounds] — on connected graphs it always does, so this guards
    against disconnected inputs. *)

val expected_cover :
  Cobra_graph.Graph.t -> ?branching:Cobra_core.Process.branching -> ?lazy_:bool ->
  ?eps:float -> ?max_rounds:int -> start:int -> unit -> float
(** [expected_cover g ~start ()] is [E(cover(start))] — the sum of
    {!cover_tail} — exact up to the truncation [eps]. *)
