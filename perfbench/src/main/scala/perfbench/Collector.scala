package perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Spark counts of one attribution key (a span, or the whole window). */
final case class Counts(
    jobs: Long = 0,
    stages: Long = 0,
    tasks: Long = 0,
    shuffleWriteBytes: Long = 0,
    shuffleReadBytes: Long = 0,
    spillBytes: Long = 0,
    /** Job intervals as (start ms, end ms); their union is the busy time. */
    intervals: Vector[(Long, Long)] = Vector.empty,
) {
  def +(o: Counts): Counts = Counts(jobs + o.jobs, stages + o.stages, tasks + o.tasks,
    shuffleWriteBytes + o.shuffleWriteBytes, shuffleReadBytes + o.shuffleReadBytes,
    spillBytes + o.spillBytes, intervals ++ o.intervals)

  /** Seconds covered by at least one job. */
  def busySeconds: Double = Collector.unionMs(intervals) / 1e3
}

/** A SparkListener that counts jobs, stages, tasks, shuffle bytes, spill and
  * persisted RDD blocks.
  *
  * Every job is attributed to the value of the [[Collector.SpanKey]] local
  * property of the thread that submitted it, so counts land on the span that
  * caused them however late the listener bus delivers them. Block updates
  * carry no job, so they are counted per window (between two [[reset]]s).
  *
  * Events arrive asynchronously; call [[settle]] before reading anything.
  */
final class Collector(sc: SparkContext) extends SparkListener {
  import Collector._

  private val lock = new Object
  private val spanOfJob = mutable.Map.empty[Int, String]
  private val spanOfStage = mutable.Map.empty[Int, String]
  private val openJobs = mutable.Set.empty[Int]
  private val runningTasks = mutable.Map.empty[Int, Int].withDefaultValue(0)
  private val jobStartMs = mutable.Map.empty[Int, Long]
  private val bySpan = mutable.Map.empty[String, Counts].withDefaultValue(Counts())
  /** RDD blocks stored in this window: block id -> bytes (memory + disk). */
  private val blocks = mutable.Map.empty[String, Long]
  private var sentinelsRun = 0L
  private var sentinelsSeen = 0L

  sc.addSparkListener(this)

  private def add(span: String)(f: Counts => Counts): Unit = bySpan(span) = f(bySpan(span))

  override def onJobStart(e: SparkListenerJobStart): Unit = lock.synchronized {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(SpanKey))).getOrElse(NoSpan)
    spanOfJob(e.jobId) = span
    e.stageIds.foreach(s => if (!spanOfStage.contains(s)) spanOfStage(s) = span)
    if (span != Sentinel) {
      openJobs += e.jobId
      jobStartMs(e.jobId) = e.time
      add(span)(c => c.copy(jobs = c.jobs + 1))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = lock.synchronized {
    spanOfJob.get(e.jobId) match {
      case Some(Sentinel) => sentinelsSeen += 1
      case Some(span) =>
        openJobs -= e.jobId
        val start = jobStartMs.remove(e.jobId).getOrElse(e.time)
        add(span)(c => c.copy(intervals = c.intervals :+ (start -> e.time)))
      case None =>
    }
    lock.notifyAll()
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = lock.synchronized {
    val span = spanOfStage.getOrElse(e.stageInfo.stageId, NoSpan)
    if (span != Sentinel) add(span)(c => c.copy(stages = c.stages + 1))
  }

  override def onTaskStart(e: SparkListenerTaskStart): Unit = lock.synchronized {
    runningTasks(e.stageId) += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = lock.synchronized {
    runningTasks(e.stageId) -= 1
    if (runningTasks(e.stageId) == 0) runningTasks -= e.stageId
    val span = spanOfStage.getOrElse(e.stageId, NoSpan)
    if (span != Sentinel) {
      val m = Option(e.taskMetrics)
      add(span)(c => c.copy(
        tasks = c.tasks + 1,
        shuffleWriteBytes = c.shuffleWriteBytes + m.fold(0L)(_.shuffleWriteMetrics.bytesWritten),
        shuffleReadBytes = c.shuffleReadBytes + m.fold(0L)(_.shuffleReadMetrics.totalBytesRead),
        spillBytes = c.spillBytes + m.fold(0L)(_.diskBytesSpilled),
      ))
    }
    lock.notifyAll()
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = lock.synchronized {
    val info = e.blockUpdatedInfo
    if (info.blockId.isRDD && info.storageLevel.isValid)
      blocks(info.blockId.name) = info.memSize + info.diskSize
  }

  /** Wait until the listener has seen every event posted so far.
    *
    * Runs a one-task sentinel job (its counts are excluded) and waits for its
    * end: the scheduler posts it after every earlier job's events. Then waits
    * until every job that started has ended and every started task has
    * reported its end.
    */
  def settle(timeoutMs: Long = 60000): Unit = {
    val before = sc.getLocalProperty(SpanKey)
    sc.setLocalProperty(SpanKey, Sentinel)
    try sc.parallelize(Seq(0), 1).count()
    finally sc.setLocalProperty(SpanKey, before)
    val deadline = System.currentTimeMillis() + timeoutMs
    lock.synchronized {
      sentinelsRun += 1
      def quiet = sentinelsSeen == sentinelsRun && openJobs.isEmpty && runningTasks.isEmpty
      while (!quiet) {
        val left = deadline - System.currentTimeMillis()
        if (left <= 0) throw new IllegalStateException(
          s"listener did not settle: open jobs ${openJobs.mkString(",")}, running tasks $runningTasks")
        lock.wait(left)
      }
    }
  }

  /** Forget every count; the next window starts now. Call after [[settle]]. */
  def reset(): Unit = lock.synchronized {
    bySpan.clear(); blocks.clear(); spanOfJob.clear(); spanOfStage.clear()
  }

  /** Counts of jobs submitted under the given span ids. */
  def counts(spans: Iterable[String]): Counts = lock.synchronized {
    spans.foldLeft(Counts())((acc, s) => acc + bySpan(s))
  }

  /** Counts of every job of the window, including unattributed ones. */
  def total: Counts = lock.synchronized(bySpan.values.foldLeft(Counts())(_ + _))

  /** Bytes of RDD blocks stored in this window. */
  def cachedBytes: Long = lock.synchronized(blocks.values.sum)

  /** RDDs that stored at least one block in this window. */
  def cachedRdds: Int = lock.synchronized(blocks.keys.map(_.split('_')(1)).toSet.size)

  /** RDDs marked as persistent right now. */
  def persistentRdds: Int = sc.getPersistentRDDs.size
}

object Collector {
  /** Local property naming the span that submits a job. */
  val SpanKey = "perfbench.span"
  val NoSpan = "-"
  private val Sentinel = "perfbench.settle"

  /** Length of the union of [start, end] intervals, in the intervals' unit. */
  def unionMs(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L
    var curStart = Long.MinValue
    var curEnd = Long.MinValue
    intervals.sortBy(_._1).foreach { case (s, e) =>
      if (s > curEnd) {
        if (curEnd > curStart) total += curEnd - curStart
        curStart = s; curEnd = e
      } else if (e > curEnd) curEnd = e
    }
    if (curEnd > curStart) total += curEnd - curStart
    total
  }
}
