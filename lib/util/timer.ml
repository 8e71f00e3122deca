(* Subtracting the origin in int64 keeps nanosecond resolution in the float
   result regardless of how long the host has been up. *)
let origin = Monotonic_clock.now ()
let now () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) origin) *. 1e-9
let since t0 = now () -. t0
