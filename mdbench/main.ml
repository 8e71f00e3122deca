(* mdsp benchmark: ns/day and step-time percentiles per workload with
   tracing off, or per-layer numbers from a separate traced run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--nproc P]
     main.exe --self-test gse16|nomin --seed N --seconds S

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}; [attempted]/[failed] count
   output checks. See BENCHMARK.json and mdbench/README.md. *)

open Mdsp_util
module E = Mdsp_md.Engine

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result (checks : Checks.t) metrics =
  let body =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number (Option.value v ~default:0.))
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (checks.failed = 0) checks.attempted checks.failed
    (String.concat ", " body)

let print_rows title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, unit, v) ->
      match v with
      | Some v -> Printf.printf "  %-30s %16.6g %s\n" name v unit
      | None -> Printf.printf "  %-30s %16s %s\n" name "absent" unit)
    rows

let context (r : Spec.ready) ~nproc =
  Printf.printf "context: workload %s, seed %d, nproc %d, recommended_domains %d, slots %d, OCaml %s\n"
    r.spec.name r.seed nproc (Exec.recommended_domains ()) (Exec.n_slots r.exec)
    Sys.ocaml_version

(* The Perf model's modelled step time per resource; with the traced run's
   per-layer rows, beside the host's measured layer times. *)
let print_model (r : Spec.ready) rows =
  let measured keys =
    match (rows, keys) with
    | None, _ | _, [] -> "-"
    | Some rows, _ ->
        let v k = List.find_map (fun (n, _, v) -> if n = k then v else None) rows in
        Printf.sprintf "%.1f (%s)"
          (List.fold_left (fun a k -> a +. Option.value (v k) ~default:0.) 0. keys)
          (String.concat " + " keys)
  in
  Printf.printf "context: Perf model (anton_like) step time per resource, us; measured on this host, us\n";
  List.iter
    (fun (k, model_us, keys) -> Printf.printf "  %-30s %12.4f   %s\n" k model_us (measured keys))
    (Probes.model_rows r)

let rebuild_count eng =
  Mdsp_space.Neighbor_list.rebuild_count (Mdsp_md.Force_calc.nlist (E.force_calc eng))

let run (w : Spec.t) ~seed ~seconds ~trace ~nproc ~trace_file =
  let slots = if w.pooled then max 1 (min nproc (Exec.recommended_domains ())) else 1 in
  let exec = if slots > 1 then Exec.create (Exec.Domains { n = slots }) else Exec.serial in
  Clock.tracing := trace;
  let checks = Checks.create () in
  let r = Drive.setup w ~exec ~seed in
  context r ~nproc;
  ignore (Drive.window_checked checks r.eng ~name:"warmup" ~seconds:0. ~min_steps:w.warmup_steps);
  let frame = Checks.capture r.eng in
  let steps0 = E.steps_done r.eng and rebuilds0 = rebuild_count r.eng in
  let p50 (win : Drive.window) = Clock.median win.steps_us in
  let metrics =
    if not trace then begin
      let win = Drive.window_checked checks r.eng ~name:"window" ~seconds ~min_steps:Drive.min_steps in
      let rss = Drive.peak_rss_mb () in
      ignore (Drive.frame_checks checks r frame);
      Drive.state_checks checks r;
      let tail, pct = Clock.tail win.steps_us in
      Printf.printf "context: %d timed steps; step_us_tail is p%.1f; %d neighbor rebuilds\n"
        (Array.length win.steps_us) pct (rebuild_count r.eng - rebuilds0);
      let rows =
        [
          ("ns_per_day", "ns/day", Some (Drive.ns_per_day w win));
          ("step_us_p50", "us", Some (p50 win));
          ("step_us_tail", "us", Some tail);
          ("setup_s", "s", Some r.setup_s);
          ("peak_rss_mb", "MB", Some rss);
        ]
      in
      print_model r None;
      print_rows "end-to-end" (rows @ [ ("check_fail_rate", "ratio", Some (Checks.fail_rate checks)) ]);
      rows
    end
    else begin
      (* Same total window as the untraced run: half without spans, half
         with, so the difference of the two medians is the span overhead. *)
      Clock.tracing := false;
      let plain = Drive.window_checked checks r.eng ~name:"window" ~seconds:(seconds /. 2.) ~min_steps:(Drive.min_steps / 2) in
      Clock.tracing := true;
      let traced = Drive.window_checked checks r.eng ~name:"window.traced" ~seconds:(seconds /. 2.) ~min_steps:(Drive.min_steps / 2) in
      let steps = E.steps_done r.eng - steps0 in
      let rebuilds = rebuild_count r.eng - rebuilds0 in
      let gse_rel_err =
        Clock.span "checks" (fun () ->
            let err = Drive.frame_checks checks r frame in
            Drive.state_checks checks r;
            err)
      in
      let ws =
        {
          Probes.untraced_p50_us = p50 plain;
          traced_p50_us = p50 traced;
          rebuilds_per_kstep = float_of_int rebuilds /. float_of_int (max 1 steps) *. 1000.;
          gse_rel_err;
        }
      in
      let rows = Clock.span "probes" (fun () -> Probes.run r ws) in
      print_model r (Some rows);
      print_rows "per-layer (absent = the workload does not run this layer)" rows;
      Printf.printf "context: tracing overhead %.1f us/step (traced %.1f - untraced %.1f)\n"
        (ws.traced_p50_us -. ws.untraced_p50_us) ws.traced_p50_us ws.untraced_p50_us;
      Option.iter
        (fun path ->
          Clock.write_chrome_trace path;
          Printf.printf "context: %d spans written to %s\n" (Clock.span_count ()) path)
        trace_file;
      rows
    end
  in
  Exec.shutdown exec;
  (checks, metrics)

let () =
  let workload = ref "" and self_test = ref "" in
  let seed = ref 1 and seconds = ref 40. and trace = ref 0 in
  let nproc = ref (Exec.recommended_domains ()) and trace_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME lj4k | water6k_gse | chain10k_tables");
      ("--self-test", Arg.Set_string self_test, "NAME gse16 | nomin (must register failed checks)");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or the traced per-layer run");
      ("--nproc", Arg.Set_int nproc, "P usable processors (slot cap)");
      ("--trace-file", Arg.Set_string trace_file, "PATH Chrome trace-event output of --trace 1");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    if !self_test <> "" then
      match List.assoc_opt !self_test Spec.self_tests with
      | Some w -> w
      | None -> failwith ("unknown self-test " ^ !self_test)
    else Spec.of_name !workload
  in
  let checks, metrics =
    run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~nproc:!nproc
      ~trace_file:(if !trace_file = "" then None else Some !trace_file)
  in
  print_result checks metrics
