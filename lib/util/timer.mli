(** The monotonic clock every phase timer reads. Unlike the wall clock it
    never steps backwards under NTP or manual adjustment, so a measured
    interval is never negative. *)

(** Seconds since an arbitrary fixed origin (the first use of this module),
    on CLOCK_MONOTONIC. Only differences are meaningful. *)
val now : unit -> float

(** [since t0] is [now () -. t0]. *)
val since : float -> float

(** {1 Phase table}

    Cumulative seconds and call counts per named phase. Names are
    hierarchical: a dotted name ([lr.spread]) is a breakdown of its undotted
    root ([lr]), so {!total} counts it inside the root and never again.
    Adding a phase is one {!span} or {!charge} call. *)

type table

val table : unit -> table

(** [span tbl name f] runs [f ()] and charges its wall time to [name]. *)
val span : table -> string -> (unit -> 'a) -> 'a

(** [charge tbl name s] adds [s] seconds (measured elsewhere) to [name]. *)
val charge : table -> string -> float -> unit

(** Counts one pass of whatever the table measures (for a force pipeline:
    one full force evaluation); the divisor of {!per_tick}. *)
val tick : table -> unit

val ticks : table -> int

(** [per_tick tbl x] is [x] divided by {!ticks}, or 0 before the first
    tick. *)
val per_tick : table -> float -> float

(** Seconds charged to a name; an unknown name reads 0. *)
val seconds : table -> string -> float

(** Spans and charges recorded under a name; an unknown name reads 0. *)
val calls : table -> string -> int

(** [(name, seconds)] in first-recorded order, each dotted name grouped
    right after the other names of its root. *)
val entries : table -> (string * float) list

(** Sum of the undotted names only. *)
val total : table -> float

(** Zeroes every figure and the tick count. The names stay registered, so
    {!entries} keeps its order across resets. *)
val reset : table -> unit
