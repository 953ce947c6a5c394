(** Query execution over tables: selection with index acceleration,
    ordering, limits, and equi-joins.

    Each operation has one executor body, a pipeline of phases (probe,
    fetch, filter, sort, …) that reports its phase boundaries to a
    {!sink}.  The plain entry points ({!select}, {!count}, …) run it
    with the null sink behind the matview and result-cache stage; the
    [*_observed] entry points run it cold with the sink the caller
    picks — {!Null} for the [EXPLAIN] statistics, {!Profiling} for the
    [EXPLAIN ANALYZE] operator tree.  Every run is also instrumented
    through {!Provkit_obs}: the chosen plan, rows scanned vs. returned,
    and a latency histogram are recorded per query (one branch of
    overhead when observability is off). *)

type order = Asc of string | Desc of string

type plan =
  | Full_scan
  | Index_eq of string  (** index name used for an equality probe *)
  | Index_range of string

val plan_for : Table.t -> Predicate.t -> plan
(** The access path {!select} will use for this predicate: an exact-match
    index over a prefix of the predicate's conjunctive equalities, else a
    range index, else a scan. *)

val plan_name : plan -> string
(** ["full_scan"], ["index_eq"] or ["index_range"] — the label used in
    metric names and trace attributes. *)

type plan_detail = {
  chosen : plan;
  estimated_rows : int;
      (** with fresh catalog statistics ([est_from_stats = true]): the
          estimated rows the query will {e return}, from
          {!Stats.selectivity}; without: the pre-catalog heuristic — an
          exact candidate count from an index probe for the index paths
          (residual predicates ignored), the table cardinality for a
          scan *)
  table_rows : int;  (** the table's total cardinality, for context *)
  est_from_stats : bool;  (** the estimate came from a fresh catalog entry *)
}

val plan_detail : Table.t -> Predicate.t -> plan_detail
(** {!plan_for} plus estimated rows.  Uses the statistics catalog when
    {!Stats.fresh} has an entry for the table (ticking
    [prov.stats.estimates.total]), else falls back to
    {!plan_detail_heuristic}.  Never executes the query. *)

val plan_detail_heuristic : Table.t -> Predicate.t -> plan_detail
(** The pre-catalog estimator, kept callable so estimate quality can be
    compared against the stats-guided path.  Probes indexes (without
    touching the row heap) but never executes the query. *)

type exec_stats = {
  plan : plan;  (** the access path actually used *)
  rows_scanned : int;  (** candidate rows the access path examined *)
  rows_returned : int;
  elapsed_ns : int;  (** [0] when observability is disabled *)
}

val select :
  ?where:Predicate.t ->
  ?order_by:order list ->
  ?limit:int ->
  Table.t ->
  (int * Row.t) list
(** Rows satisfying [where] (default all), ordered by [order_by] (default
    row id), truncated to [limit].

    Served from the epoch-validated result cache when possible (see
    {!set_cache_enabled}): a repeat of a query against an unmodified
    table returns the stored result without touching the heap, and is
    observationally identical to a cold run.  Predicates containing
    [Predicate.Custom] always run cold.  Cached rows alias the rows a
    cold run would have returned — treat them as read-only, exactly as
    rows fetched from the table itself. *)

val count : ?where:Predicate.t -> Table.t -> int

val join :
  ?where_left:Predicate.t ->
  ?where_right:Predicate.t ->
  on:(string * string) list ->
  Table.t ->
  Table.t ->
  ((int * Row.t) * (int * Row.t)) list
(** Equi-join: pairs where each [on] column of the left row equals the
    matching column of the right row.  Probes a right-table index when
    one covers the join columns, else builds a hash table on the fly. *)

val group_count : by:string -> ?where:Predicate.t -> Table.t -> (Value.t * int) list
(** Row counts grouped by a column's value, sorted descending by count.
    Goes through the same plan selection as {!select}: an index
    satisfying [where] narrows the scanned candidates. *)

(** {2 Observed execution (EXPLAIN, EXPLAIN ANALYZE)}

    The [*_observed] entry points run an operation's one executor body
    cold — never from the result cache or a matview — and return its
    {!exec_stats} plus whatever the {!sink} collected. *)

type profile = {
  op : string;  (** operator: [select]/[probe]/[fetch]/[filter]/[sort]/[limit]/… *)
  detail : string;  (** e.g. [index_eq(node_url)], [residual_predicate] *)
  rows_in : int;
  rows_out : int;
  est_rows : int option;
      (** the catalog's estimate of [rows_out], present on the probe,
          filter and aggregate phases (and the select root) when the
          table had fresh statistics at execution — the
          estimated-vs-actual column EXPLAIN ANALYZE prints *)
  dur_ns : int;
  children : profile list;
}

(** Where an executor body reports its phase boundaries.

    - [Null]: a boundary costs nothing — no clock read, no profile
      node — and the body yields [()].
    - [Profiling]: every boundary reads the clock and the body yields a
      {!profile} tree.  Consecutive phases share boundary timestamps,
      so the sum of leaf [dur_ns] values tiles the root's interval
      exactly.  With fresh statistics the run also feeds the
      misestimate detector: a count of rows satisfying the predicate
      more than 10x off the catalog's estimate, either way, ticks
      [prov.stats.misestimates.total] and records a [stats.misestimate]
      flight-recorder incident.  Profile timing does not depend on the
      observability switch — choosing this sink is the opt-in. *)
type _ sink = Null : unit sink | Profiling : profile sink

val select_observed :
  'p sink ->
  ?where:Predicate.t ->
  ?order_by:order list ->
  ?limit:int ->
  Table.t ->
  (int * Row.t) list * exec_stats * 'p
(** {!select}, cold.  Profile children: [probe; fetch; filter; sort;
    limit]. *)

val count_observed : 'p sink -> ?where:Predicate.t -> Table.t -> int * exec_stats * 'p
(** {!count}, cold.  Profile children: [probe; fetch; filter]. *)

val group_count_observed :
  'p sink -> by:string -> ?where:Predicate.t -> Table.t -> (Value.t * int) list * exec_stats * 'p
(** {!group_count}, cold.  Profile children: [probe; fetch; aggregate;
    sort]. *)

val join_observed :
  'p sink ->
  ?where_left:Predicate.t ->
  ?where_right:Predicate.t ->
  on:(string * string) list ->
  Table.t ->
  Table.t ->
  ((int * Row.t) * (int * Row.t)) list * exec_stats * 'p
(** {!join} with its statistics.  The reported plan is the right
    side's probe path ([Index_eq] when an index covers the join
    columns, else [Full_scan] for the hash build); [rows_scanned]
    counts the right rows probed or hashed.  Profile children:
    [left_input; probe] on the index path, [left_input; build; probe]
    on the hash path. *)

val profile_to_json : profile -> string
(** One nested JSON object
    [{"op":..,"detail":..,"rows_in":..,"rows_out":..,"dur_ns":..,
      "children":[..]}]. *)

val render_profile : profile -> string
(** Indented operator tree: one line per node with rows in/out, percent
    of the root's duration, and milliseconds. *)

val fold_profile : profile -> (string * int) list
(** Folded-stack lines [("select;probe", self_ns); ..] — self time is a
    node's duration minus its children's, clamped at zero — in the
    format flamegraph tooling consumes (pre-order). *)

val set_query_span_threshold_ns : int -> unit
(** Adjust the slow-query span threshold (default 100 µs): queries at
    least this slow record a trace span; all queries still feed the
    counters and latency histogram.  [0] traces every query. *)

(** {2 Result cache}

    The plain {!select}, {!count} and {!group_count} entry points
    consult a process-wide bounded LRU keyed by (table uid, operation,
    predicate, order, limit) and validated against {!Table.epoch}: any
    mutation of the table invalidates its cached results on the next
    lookup.  The [*_observed] entry points never consult the cache —
    their callers asked to observe the execution.  Hits,
    misses, evictions and invalidations tick the
    [prov.query.cache.*] metrics. *)

val set_cache_enabled : bool -> unit
(** Default enabled.  Disabling does not clear stored entries (they are
    epoch-checked on any later lookup anyway); use {!clear_cache} to
    also drop them. *)

val set_cache_capacity : int -> unit
(** Default 512 entries; shrinking evicts immediately; [0] caches
    nothing. *)

val cache_capacity : unit -> int

val cache_length : unit -> int
(** Entries currently stored. *)

val clear_cache : unit -> unit

(** {2 Materialized-view sources}

    A registered matview source answers a whole query shape — currently
    [count] (op ["count"], aux [""]) and [group_count ~by] (op
    ["group_count"], aux [by]) — straight from incrementally maintained
    state, before the LRU cache is even consulted.  Only the trivial
    shape matches (predicate {!Predicate.True}, no ordering, no limit);
    anything else, and any source whose [fresh] check fails, falls
    through to the normal cold path.  Serves tick
    [prov.matview.serves.total]. *)

val register_matview_source :
  table:Table.t ->
  op:string ->
  aux:string ->
  fresh:(unit -> bool) ->
  payload:(unit -> Query_cache.payload) ->
  unit
(** Registering again for the same (table, op, aux) replaces the
    previous source.  [fresh] should compare a stamped {!Table.epoch}
    against the current one so direct table mutations that bypassed the
    view's feed path disqualify it. *)

val clear_matview_sources : unit -> unit

val matview_source_count : unit -> int
