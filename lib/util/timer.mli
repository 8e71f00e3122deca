(** The monotonic clock every phase timer reads. Unlike the wall clock it
    never steps backwards under NTP or manual adjustment, so a measured
    interval is never negative. *)

(** Seconds since an arbitrary fixed origin (the first use of this module),
    on CLOCK_MONOTONIC. Only differences are meaningful. *)
val now : unit -> float

(** [since t0] is [now () -. t0]. *)
val since : float -> float
