package repro.util

import java.util.concurrent.atomic.AtomicInteger

/** Runs independent pieces of driver work at the same time, so that their
  * Spark jobs share the cluster instead of queueing behind one another.
  */
object Concurrently {

  /** Run every task and return the results in input order.
    *
    * At most `limit` tasks run at a time, each on a thread that the calling
    * thread creates, so every task sees the caller's inheritable thread
    * locals — among them Spark's local properties (job group, scheduler pool,
    * any attribution key a listener reads). A single task, or a limit of one,
    * runs on the calling thread and starts no thread.
    *
    * Every task runs to its end even after another has failed; only then is
    * the failure of the first failing task (in input order) rethrown, with
    * any later failures attached as suppressed. When this returns or throws,
    * no thread it started is alive.
    */
  def all[T](limit: Int)(tasks: Seq[() => T]): Seq[T] = {
    val results = new Array[Any](tasks.size)
    val failures = new Array[Throwable](tasks.size)
    val next = new AtomicInteger(0)
    def work(): Unit = {
      var i = next.getAndIncrement()
      while (i < tasks.size) {
        try results(i) = tasks(i)()
        catch { case t: Throwable => failures(i) = t }
        i = next.getAndIncrement()
      }
    }
    val threads = math.min(limit, tasks.size)
    if (threads <= 1) work()
    else {
      val workers = Seq.tabulate(threads) { i =>
        val t = new Thread(() => work(), s"concurrently-$i")
        t.setDaemon(true)
        t.start()
        t
      }
      // Thread.join publishes the workers' writes to this thread.
      workers.foreach(_.join())
    }
    failures.filter(_ != null) match {
      case Array() => results.toSeq.asInstanceOf[Seq[T]]
      case Array(first, rest @ _*) =>
        rest.filterNot(_ eq first).foreach(first.addSuppressed)
        throw first
    }
  }
}
