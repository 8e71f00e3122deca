(* Monotonic timing, order statistics and the in-memory span recorder.

   Every time in the benchmark comes from [Monotonic_clock.now] (bechamel's
   CLOCK_MONOTONIC stub), never from the wall clock, and never from the
   library's own timing records: the layers are timed from outside, around
   calls into their public functions. *)

let now_ns () = Monotonic_clock.now ()
let seconds_between a b = Int64.to_float (Int64.sub b a) *. 1e-9

(* --- order statistics --- *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* The highest percentile that still has at least 10 samples above it:
   with n sorted samples that is the one at rank n - 11. Returns (value,
   percentile); nan when there are too few samples. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= 10 then (nan, nan)
  else
    let k = n - 11 in
    (a.(k), 100. *. float_of_int (k + 1) /. float_of_int n)

(* --- spans --- *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at the root *)
  step : int;  (** engine step id, -1 outside the step loop *)
  start_ns : int64;
  mutable stop_ns : int64;
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []

(* [timed ?step name f] runs [f], returning its result and its duration in
   seconds. With tracing on it also records a span whose parent is the
   innermost open span; with tracing off it records nothing. *)
let timed ?(step = -1) name f =
  if not !tracing then begin
    let t0 = now_ns () in
    let r = f () in
    (r, seconds_between t0 (now_ns ()))
  end
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    let s = { id; name; parent; step; start_ns = now_ns (); stop_ns = 0L } in
    spans := s :: !spans;
    open_spans := id :: !open_spans;
    let close () =
      s.stop_ns <- now_ns ();
      open_spans := List.tl !open_spans
    in
    let r = Fun.protect ~finally:close f in
    (r, seconds_between s.start_ns s.stop_ns)
  end

let span ?step name f = fst (timed ?step name f)

let span_count () = List.length !spans

(* Chrome trace-event JSON ("X" complete events, microseconds from the first
   span), loadable in Perfetto or chrome://tracing. *)
let write_chrome_trace path =
  let all = List.rev !spans in
  let t0 = match all with s :: _ -> s.start_ns | [] -> 0L in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun k s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"step\":%d}}"
        (if k = 0 then "" else ",\n")
        s.name
        (seconds_between t0 s.start_ns *. 1e6)
        (seconds_between s.start_ns s.stop_ns *. 1e6)
        s.id s.parent s.step)
    all;
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
