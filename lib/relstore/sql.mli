(** A small SQL-ish query language over the storage engine.

    Grammar (case-insensitive keywords):

    {v
    query   := SELECT cols FROM table [WHERE cond] [GROUP BY col]
               [ORDER BY col [ASC|DESC] {, col [ASC|DESC]}] [LIMIT n]
    cols    := '*' | agg | col ',' COUNT( '*' )   (with GROUP BY)
             | col {',' col}
    agg     := COUNT( '*' ) | SUM(col) | AVG(col) | MIN(col) | MAX(col)
    cond    := or-expr;  OR < AND < NOT in binding strength; parentheses ok
    atom    := col op literal
             | col IS [NOT] NULL
             | col LIKE 'substring'        (case-insensitive contains)
             | col BETWEEN literal AND literal
    op      := = | <> | != | < | <= | > | >=
    literal := integer | float | 'string' | TRUE | FALSE | NULL
    v}

    Queries compile to {!Predicate} trees and run through {!Query_exec},
    so the index planner applies exactly as for programmatic queries.
    Every entry point shares one dispatch — the statement's operator
    run cold through a {!Query_exec.sink} — and one result-shaping
    step.  {!execute}, {!execute_stats} and EXPLAIN use the null sink;
    EXPLAIN ANALYZE uses the profiling sink. *)

type aggregate = Count_star | Sum of string | Avg of string | Min of string | Max of string

type ast = {
  projection : [ `All | `Aggregate of aggregate | `Columns of string list ];
  table : string;
  where : Predicate.t;
  group_by : string option;
      (** with GROUP BY, the projection must be [`Columns [group_col]]
          plus an implicit count — i.e. [SELECT col, COUNT( '*' ) FROM t
          GROUP BY col] *)
  order_by : Query_exec.order list;
  limit : int option;
}

exception Parse_error of string

val parse : string -> ast
(** Raises {!Parse_error} with a human-readable message. *)

type result = { columns : string list; rows : Value.t list list }

val execute : Database.t -> ast -> result
(** Raises {!Errors.No_such_table} / {!Errors.No_such_column} for
    references the schema cannot satisfy. *)

val execute_stats : Database.t -> ast -> result * Query_exec.exec_stats
(** {!execute} plus the executor's statistics (plan used, rows scanned
    vs. returned, latency) for the query's table access.  Like
    {!execute}, it never consults the result cache. *)

val query : Database.t -> string -> result
(** [parse] + [execute]. *)

val render : result -> string
(** Aligned table with a header, for CLI display. *)

val plan_to_string : Query_exec.plan -> string
(** ["full scan"] or ["index <name> (eq|range)"]. *)

val explain : Database.t -> string -> string
(** The access path the planner chose, without executing:
    [plan_to_string (Query_exec.plan_for ...)] on the parsed query. *)

type explain_report = {
  table : string;
  plan : Query_exec.plan;  (** always equals [Query_exec.plan_for] on the query *)
  estimated_rows : int;  (** {!Query_exec.plan_detail}'s estimate *)
  est_from_stats : bool;  (** the estimate used a fresh catalog entry *)
  stats : Query_exec.exec_stats;
      (** the executor's statistics, except that [rows_returned] counts
          the statement's result rows (after a GROUP BY's LIMIT and
          aggregate folds) *)
}

val explain_query : Database.t -> string -> explain_report
(** Parse, plan, and {e execute} the query, returning the planner's
    choice alongside measured rows scanned / returned and latency —
    the [provctl sql --explain] surface. *)

val render_explain : explain_report -> string
(** Multi-line human-readable rendering of a report. *)

type analyze_report = {
  explain : explain_report;  (** the same header EXPLAIN reports *)
  rows_matched : int;
      (** rows that satisfied WHERE — the actual [estimated_rows] is
          judged against: the filter phase's output, or every row a
          GROUP BY counted *)
  profile : Query_exec.profile;
      (** covers the executor work; result shaping (projection,
          aggregate folds) happens outside it *)
}

val analyze_query : Database.t -> string -> analyze_report
(** EXPLAIN ANALYZE: parse, plan, and execute the query with the
    profiling sink — the [provctl sql --analyze] surface.
    Analyzes the table into the statistics catalog first when its entry
    is missing or stale, so the report's estimates (and the profile's
    per-operator [est_rows]) always come from fresh statistics. *)

val estimate_error : analyze_report -> float
(** Mismatch factor between [rows_matched] and the estimated rows,
    [>= 1.0] (1.0 = perfect estimate). *)

val render_analyze : analyze_report -> string
(** The {!render_explain} header (latency taken from the profile root,
    plus the matched rows and their estimate error) followed by the
    indented operator tree with rows in/out, catalog estimates where
    available, and percent of total per node. *)

val analyze_to_json : analyze_report -> string
(** One JSON object with the header fields and the raw profile tree. *)
