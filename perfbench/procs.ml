(* Processes the benchmark starts and watches from outside: /proc
   readers (peak RSS, CPU ticks, children), the praxd lifecycle with its
   hygiene checks, and the child processes of the engine sweep. *)

open Prax
module Wire = Daemon.Wire
module Client = Daemon.Client

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

(* [VmHWM] (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> 0.
  | Some s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
          | _ -> acc)
        0. (String.split_on_char '\n' s)

(* Fields after the parenthesised command name of /proc/<pid>/stat:
   index 0 is field 3 (state), so ppid is 1, utime 11, stime 12,
   cutime 13, cstime 14. *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%s/stat" pid) with
  | None -> None
  | Some s -> (
      match String.rindex_opt s ')' with
      | None -> None
      | Some i ->
          Some
            (Array.of_list
               (String.split_on_char ' '
                  (String.trim (String.sub s (i + 1) (String.length s - i - 1))))))

(* USER_HZ, the unit of the /proc CPU fields, is 100 on Linux. *)
let ticks = 100.

(* (own CPU, reaped children's CPU) of a process, in seconds. *)
let cpu_seconds pid =
  match stat_fields pid with
  | Some f when Array.length f > 14 ->
      let v i = float_of_string f.(i) /. ticks in
      (v 11 +. v 12, v 13 +. v 14)
  | _ -> (0., 0.)

let pids () =
  Array.to_list (Sys.readdir "/proc")
  |> List.filter (fun d -> d <> "" && String.for_all (fun c -> c >= '0' && c <= '9') d)

(* Live processes whose command line mentions [needle]. *)
let procs_mentioning needle =
  List.filter
    (fun pid ->
      match read_file (Printf.sprintf "/proc/%s/cmdline" pid) with
      | None -> false
      | Some cmd ->
          let n = String.length needle and m = String.length cmd in
          let rec at i = i + n <= m && (String.sub cmd i n = needle || at (i + 1)) in
          at 0)
    (pids ())

(* Every process this benchmark started and has not yet reaped, so an
   exception cannot leave one behind. *)
let live : int list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let st = go () in
  live := List.filter (( <> ) pid) !live;
  st

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (try Some (reap pid) with Unix.Unix_error _ -> None))
    !live

let () = at_exit kill_all

let spawn ?(stdout = Unix.stdout) ?(stderr = Unix.stderr) exe args =
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin stdout stderr in
  live := pid :: !live;
  pid

(* A number in a child's JSON output. *)
let num = function Metrics.Float f -> f | Metrics.Int n -> float_of_int n | _ -> nan

(* Run this executable with [args], its stdout a pipe: the time it was
   spawned, whether it exited 0, and its stdout as JSON lines. *)
let run_child args =
  let r, w = Unix.pipe ~cloexec:true () in
  let spawned = Prax.Analysis.now () in
  let pid = spawn ~stdout:w Sys.executable_name args in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  close_in ic;
  let ok = reap pid = Unix.WEXITED 0 in
  (spawned, ok, List.map Metrics.json_of_string lines)

(* --- praxd --------------------------------------------------------------- *)

let praxd_exe = Filename.concat "_build" (Filename.concat "default" "bin/praxd.exe")

type praxd = { pid : int; socket : string; log : string }

let control socket op =
  Client.request ~timeout:10. ~socket
    { Wire.id = Metrics.Int 0; client = Some "perfbench-ctl"; op }

(* Start [praxd serve] on a fresh socket in [dir] and wait until it
   answers [ping]. *)
let start_praxd ~dir args =
  let socket = Filename.concat dir "praxd.sock" in
  let log = Filename.concat dir "praxd.log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    spawn ~stdout:fd ~stderr:fd praxd_exe
      ([ "serve"; "--socket"; socket; "--jobs"; "2"; "--quiet" ] @ args)
  in
  Unix.close fd;
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait () =
    match control socket Wire.Ping with
    | Ok ("ok", _) -> { pid; socket; log }
    | _ ->
        if Unix.gettimeofday () > deadline then
          failwith ("praxd did not answer ping; see " ^ log);
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (( <> ) pid) !live;
            failwith ("praxd exited during start-up; see " ^ log));
        Unix.sleepf 0.005;
        wait ()
  in
  wait ()

let stats d =
  match control d.socket Wire.Stats with
  | Ok ("ok", doc) -> Metrics.member "stats" doc
  | _ -> None

(* The value of counter [name] in a prax.stats document (0 when absent). *)
let stat_counter doc name =
  match Option.bind (Option.bind doc (Metrics.member "counters")) (Metrics.member name) with
  | Some (Metrics.Int n) -> n
  | _ -> 0

type drained = {
  d_peak_rss_mb : float;
  d_cpu_s : float;  (** praxd's own utime+stime *)
  d_worker_cpu_s : float;  (** its reaped workers' utime+stime *)
  breaches : string list;  (** hygiene failures; empty when clean *)
}

(* Read peak RSS and CPU from /proc, drain, and check that the daemon
   exits 0, removes its socket and pidfile, and leaves no worker behind
   (a worker's command line is its parent's, socket path included). *)
let drain d =
  let pid = string_of_int d.pid in
  let rss = peak_rss_mb pid in
  let cpu, wcpu = cpu_seconds pid in
  let breaches = ref [] in
  let breach fmt = Printf.ksprintf (fun s -> breaches := s :: !breaches) fmt in
  (match control d.socket Wire.Drain with
  | Ok ("ok", _) -> ()
  | Ok (st, _) -> breach "drain answered %s" st
  | Error e -> breach "drain failed: %s" (Client.error_to_string e));
  (match reap d.pid with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> breach "praxd exited %d" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> breach "praxd killed by signal %d" n);
  if Sys.file_exists d.socket then breach "socket left behind";
  if Sys.file_exists (d.socket ^ ".pid") then breach "pidfile left behind";
  (match procs_mentioning d.socket with
  | [] -> ()
  | orphans ->
      breach "orphan workers: %s" (String.concat "," orphans);
      List.iter (fun p -> try Unix.kill (int_of_string p) Sys.sigkill with _ -> ()) orphans);
  { d_peak_rss_mb = rss; d_cpu_s = cpu; d_worker_cpu_s = wcpu; breaches = List.rev !breaches }

(* --- requests ------------------------------------------------------------- *)

let analyze_request ~id ~client (c : Inputs.cell) source =
  {
    Wire.id = Metrics.Int id;
    client = Some client;
    op =
      Wire.Analyze
        { analysis = c.Inputs.analysis; input = c.Inputs.name; source;
          config = c.Inputs.config };
  }

(* One analyze round trip: (wire status, parsed report when present). *)
let analyze ~socket req =
  match Client.request ~timeout:120. ~socket req with
  | Error e -> Error (Client.error_to_string e)
  | Ok (status, doc) -> (
      match Metrics.member "report" doc with
      | None -> Ok (status, None)
      | Some r -> (
          match Analysis.report_of_json r with
          | Ok p -> Ok (status, Some p)
          | Error e -> Error ("bad report: " ^ e)))
