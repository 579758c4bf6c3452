(** Canonical cache keys for simulation jobs.

    Two requests that denote the same computation must digest equal, or
    the result cache and the crash-resume journal silently lose their
    dedup value; two requests that can produce different numbers must
    digest distinct, or the cache serves wrong answers.  Canonical form
    therefore normalises everything that does not affect the sampled
    law or the consumed random stream:

    - JSON field order (erased by parsing into {!Proto.job});
    - graph family spelling (trimmed, lowercased);
    - the branching extremes [Bernoulli 1.0 = Fixed 2] and
      [Bernoulli 0.0 = Fixed 1], which are draw-for-draw identical by
      the contract documented in {!Cobra_core.Process};

    and keeps everything that does: the randomness model
    ({!Cobra_prng.Keyed.model_tag}, so results sampled under an earlier
    model — say, preloaded from an old [jobs.jsonl] — never answer a
    job), kind, realised family, requested
    [n], generator seed, branching, laziness, round cap (an explicit
    cap digests differently from the default — conservative, never
    wrong), trial count and master seed. *)

val canonical : Proto.job -> string
(** A stable one-line textual form of the normalised job: the digest
    preimage, exported so the tests can check what canonicalisation
    merges. *)

val digest : Proto.job -> string
(** [Digest.to_hex] (MD5) of {!canonical} — 32 lowercase hex chars. *)
